package repro.meas

import org.scalatest.funsuite.AnyFunSuite
import Table3.Cell

class Table3Spec extends AnyFunSuite {

  private def cell(format: String, timeMs: Double, ok: Boolean) =
    Cell("MMM", "STOREL", format, timeMs, 1.0, ok)

  test("bestOf picks the fastest correct cell") {
    val best = Table3.bestOf(Seq(cell("CSR,CSR", 5, ok = true),
      cell("Dense,Dense", 1, ok = false), cell("COO,COO", 3, ok = true)))
    assert(best.format == "COO,COO" && best.ok)
  }

  test("bestOf never reports a wrong cell as best") {
    val best = Table3.bestOf(Seq(cell("CSR,CSR", 5, ok = false),
      cell("Dense,Dense", 1, ok = false)))
    assert(!best.ok && best.format == "-" && best.timeMs.isNaN)
    assert(best.kernel == "MMM" && best.system == "STOREL")
  }
}
