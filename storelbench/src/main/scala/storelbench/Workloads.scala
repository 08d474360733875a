package storelbench

import repro.core._
import repro.egraph.SatConfig
import repro.exec._
import repro.kernels.Kernels
import repro.meas.Table3
import repro.storage._

/** One kernel over one choice of storage formats, with its inputs already
  * generated. `reference` comes from the independent `Kernels.ref*`
  * implementations, never from the optimizer or the interpreter. */
final case class Case(
    name: String,
    tp: Expr,
    storages: () => Seq[Storage],
    reference: Value,
    extraCards: Map[String, Card] = Map.empty,
    extraVals: Map[String, Value] = Map.empty) {
  def kernel: String = name.takeWhile(_ != '/')
}

/** A workload's generated inputs: its cases, plus the two matrices the
  * library speed anchors (`SciPyLike.mmm`, `NumPyLike.sumMmm`) run on. */
final case class Inputs(cases: Seq[Case], a: CooMat, b: CooMat)

/** How a workload spends its run. */
sealed trait Shape
/** Each pass builds, optimizes and runs every case (`runs` timed runs
  * after `warmRuns` untimed ones). At least `minPasses` passes run. With
  * `pick`, the fastest correct candidate of each kernel is chosen, as
  * Table 3 does. */
final case class OptimizeEach(warmRuns: Int, runs: Int, pick: Boolean, minPasses: Int) extends Shape
/** Storages are built and plans optimized during set-up; passes only run
  * the cached plans. */
case object ExecuteCached extends Shape

/** `setupReps` set-ups run per process; `setup_s` reports their median. */
final case class Workload(name: String, shape: Shape, prepare: Long => Inputs, setupReps: Int)

object Workloads {

  /** Wall-clock abort of every saturation run. It sits far above the
    * harness's per-case limits, so only work budgets shape the search. */
  val AbortMs: Long = 600000L

  /** The budgets of the tier-1 `OptimizerSpec`: the same plan on any
    * machine and under any load. */
  val config: Optimizer.Config = Optimizer.Config(
    stage1 = SatConfig(maxIters = 12, maxNodes = 4000, timeoutMs = AbortMs),
    stage2 = SatConfig(maxIters = 12, maxNodes = 9000, timeoutMs = AbortMs),
    rounds1 = 2, rounds2 = 3)

  private val matFormats: Map[String, (String, CooMat) => Storage] = Map(
    "CSR" -> Formats.csr, "CSC" -> Formats.csc, "Dense" -> Formats.denseMat,
    "COO" -> Formats.coo, "Trie" -> Formats.trie, "Hash" -> Formats.dok)

  private def mm(kernel: String, tp: Expr, ref: Value, a: CooMat, b: CooMat)
                (fa: String, fb: String): Case =
    Case(s"$kernel/$fa,$fb", tp,
      () => Seq(matFormats(fa)("A", a), matFormats(fb)("B", b)), ref)

  private def mmm(a: CooMat, b: CooMat): (String, String) => Case =
    mm("MMM", Kernels.mmm, Kernels.refMmm(a, b), a, b)

  private def sumMmm(a: CooMat, b: CooMat): (String, String) => Case =
    mm("SumMMM", Kernels.sumMmm, VNum(Kernels.refSumMmm(a, b)), a, b)

  private def mttkrp(w: Table3.Workload): Case =
    Case("MTTKRP/CSF,CSR,CSC", Kernels.mttkrp,
      () => Seq(Formats.csf("A", w.a3), Formats.csr("B", w.bMk), Formats.csc("C", w.cMk)),
      Kernels.refMttkrp(w.a3, w.bMk, w.cMk))

  /** Table 4's case set, on Table 3 data, in Table 4's order. */
  private def table4(seed: Long): Inputs = {
    val w = Table3.defaultWorkload(seed)
    Inputs(Seq(
      Case("BATAX/CSR,Dense", Kernels.batax,
        () => Seq(Formats.csr("A", w.a), Formats.denseVec("X", w.x)),
        Kernels.refBatax(w.beta, w.a, w.x),
        Map("beta" -> Card.scalar), Map("beta" -> VNum(w.beta))),
      sumMmm(w.a, w.b)("CSC", "CSR"),
      mttkrp(w),
      mmm(w.a, w.b)("CSR", "CSR"),
      Case("TTM/CSF,CSC", Kernels.ttm,
        () => Seq(Formats.csf("A", w.a3), Formats.csc("B", w.bTtm)),
        Kernels.refTtm(w.a3, w.bTtm))), w.a, w.b)
  }

  /** Plans whose run time dominates: segment loops, hash maps, dense
    * arrays and a three-level CSF. */
  private def execute(seed: Long): Inputs = {
    val w = Table3.defaultWorkload(seed)
    val mmmOf = mmm(w.a, w.b)
    Inputs(Seq(mmmOf("CSR", "CSR"), mmmOf("Hash", "Hash"),
      sumMmm(w.a, w.b)("Dense", "Dense"), mttkrp(w)), w.a, w.b)
  }

  /** Table 3's STOREL candidates for MMM and ΣMMM, on Table 3's recipe at
    * a third of its linear scale: A is 100², 1% dense; B is 100×250 at
    * density 2⁻⁵. The Trie,Trie candidates are left out: at 12 s and 19 s
    * of optimization they would be three quarters of a pass, and the sweep
    * would no longer measure small e-graphs and one-shot plans. */
  private def sweep(seed: Long): Inputs = {
    val m = 100
    val a = CooMat.random(m, m, (m * m * 0.01).toInt, seed)
    val b = CooMat.random(m, 250, (m * 250 / 32.0).toInt, seed + 1)
    val mmmOf = mmm(a, b)
    val sumOf = sumMmm(a, b)
    Inputs(
      Seq("CSR" -> "CSR", "CSC" -> "CSR", "Dense" -> "Dense", "COO" -> "COO")
        .map(mmmOf.tupled) ++
      Seq("CSC" -> "CSR", "CSR" -> "CSR", "Dense" -> "Dense").map(sumOf.tupled), a, b)
  }

  /** The plans the library speed anchors are compared with. */
  def anchorCases(a: CooMat, b: CooMat): Seq[Case] =
    Seq(mmm(a, b)("CSR", "CSR"), sumMmm(a, b)("Dense", "Dense"))

  val all: Seq[Workload] = Seq(
    // One pass of optimize-large already outlasts --seconds.
    Workload("optimize-large",
      OptimizeEach(warmRuns = 1, runs = 3, pick = false, minPasses = 1), table4, setupReps = 3),
    // Its optimize_ms comes from the set-ups, whose first ones still run
    // on a cold JIT: five give a steadier median.
    Workload("execute-large", ExecuteCached, execute, setupReps = 5),
    // Each candidate is run once per pass, as Table 3 does; two passes
    // give each one-shot time a second sample.
    Workload("format-sweep",
      OptimizeEach(warmRuns = 0, runs = 1, pick = true, minPasses = 2), sweep, setupReps = 3))
}
