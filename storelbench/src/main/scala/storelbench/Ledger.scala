package storelbench

import scala.collection.mutable

/** One attempted operation: a case's pass, set-up, run or traced
  * optimization. It fails on an exception, a wrong result, a wall-clock
  * abort, a plan or count that differs from an earlier one, or its time
  * limit. */
final class Op(val caseName: String, val what: String) {
  @volatile var failure: String = null
}

/** Everything a run has measured so far. The main thread records into it
  * and the watchdog may report it at any moment, so every access holds
  * the ledger's lock. */
final class Ledger {
  private val ops = mutable.ArrayBuffer.empty[Op]
  private val samples = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Double]]
  /** Per-case facts for the trace file: fingerprints, counts, picks. */
  val facts = mutable.LinkedHashMap.empty[String, mutable.LinkedHashMap[String, Any]]
  private var emitted = false

  @volatile var current: Op = null
  @volatile var deadlineNs: Long = Long.MaxValue

  def begin(caseName: String, what: String, limitNs: Long): Op = synchronized {
    val op = new Op(caseName, what)
    ops += op
    current = op
    deadlineNs = System.nanoTime() + limitNs
    op
  }

  def end(): Unit = synchronized { current = null; deadlineNs = Long.MaxValue }

  def fail(op: Op, reason: String): Unit = synchronized {
    if (op.failure == null) op.failure = reason
  }

  def record(key: String, v: Double): Unit = synchronized {
    samples.getOrElseUpdate(key, mutable.ArrayBuffer.empty) += v
  }

  def fact(caseName: String, key: String, v: Any): Unit = synchronized {
    facts.getOrElseUpdate(caseName, mutable.LinkedHashMap.empty)(key) = v
  }

  def values(key: String): Seq[Double] = synchronized {
    samples.get(key).map(_.toSeq).getOrElse(Seq.empty)
  }

  def attempted: Int = synchronized(ops.length)
  def failures: Seq[Op] = synchronized(ops.filter(_.failure != null).toSeq)

  /** Runs `f` once: the first caller (main thread or watchdog) reports. */
  def emitOnce(f: => Unit): Boolean = synchronized {
    if (emitted) false else { emitted = true; f; true }
  }

  /** Prints a progress line unless the result has already been printed. */
  def say(line: String): Unit = synchronized { if (!emitted) println(line) }
}

object Stat {
  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) 0.0 else {
      val s = xs.sorted
      if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
    }

  def geomean(xs: Seq[Double]): Double =
    if (xs.isEmpty) 0.0 else math.exp(xs.map(x => math.log(math.max(x, 1e-9))).sum / xs.length)
}
