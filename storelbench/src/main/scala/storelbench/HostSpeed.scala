package storelbench

/** Host-speed probe. The 4-vCPU hosts this benchmark runs on change speed
  * by up to 1.7× for seconds at a time, for every kind of code alike (a
  * plain Python loop shows it too). A fixed piece of work — integer hashing
  * into a small open-addressing table, branchy and allocation-free so that
  * garbage collection cannot reach it — is timed next to every measured
  * operation, and the operation's wall time is scaled by `ReferenceMs`
  * over the probe's time. The slowdowns are per vCPU, so the probe runs on
  * the measuring thread (it shares one table and is not thread-safe). The
  * program under test never runs inside the probe, so no change to it can
  * move the probe. */
object HostSpeed {

  /** About the probe's time on the 4-vCPU host the benchmark was tuned on.
    * Scaled times read as milliseconds at that host's usual speed. */
  val ReferenceMs = 8.0

  /** Operations longer than this span several of the host's speed phases,
    * so probes at their two ends say little about them. They are scaled by
    * the median of every probe taken so far in the run instead, which
    * follows the slower drift of the host's speed from minute to minute. */
  val LongOpNs = 2000000000L

  private val table = new Array[Int](1 << 12)
  private var sink = 0L

  private def onceMs(): Double = {
    java.util.Arrays.fill(table, 0)
    val t0 = System.nanoTime()
    var x = 12345
    var used = 0
    var hits = 0L
    var i = 0
    while (i < 400000) {
      x = x * 1103515245 + 12345
      val key = ((x >>> 8) & 0xffff) | 1
      var slot = (key * 0x9E3779B1) >>> 20
      while (table(slot) != 0 && table(slot) != key) slot = (slot + 1) & 0xfff
      if (table(slot) == key) hits += 1
      else if (used < 3000) { table(slot) = key; used += 1 }
      i += 1
    }
    sink += hits
    (System.nanoTime() - t0) / 1e6
  }

  /** Median of three probes, in ms. */
  def probeMs(): Double = Stat.median(Seq(onceMs(), onceMs(), onceMs()))

  /** Runs the probe until the JIT has compiled it. */
  def warmUp(): Unit = (1 to 30).foreach(_ => onceMs())
}

/** Scales wall times by the host speed measured around them. The probe
  * after one operation serves as the probe before the next one when
  * nothing ran in between for long. */
final class SpeedMeter {
  HostSpeed.warmUp()
  private val history = scala.collection.mutable.ArrayBuffer.empty[Double]
  private var lastAt = 0L
  probe()

  private def probe(): Double = {
    history += HostSpeed.probeMs()
    lastAt = System.nanoTime()
    history.last
  }

  /** The scale factor of the current moment, from a fresh probe. */
  def factorNow(): Double = HostSpeed.ReferenceMs / probe()

  /** Runs `f` and returns its result with the factor that converts wall
    * times measured inside it to the reference speed. */
  def around[A](f: => A): (A, Double) = {
    val before = if (System.nanoTime() - lastAt < 500000000L) history.last else probe()
    val t0 = System.nanoTime()
    val a = f
    val ns = System.nanoTime() - t0
    val after = probe()
    val probeMs = if (ns > HostSpeed.LongOpNs) Stat.median(history.toSeq) else (before + after) / 2
    (a, HostSpeed.ReferenceMs / probeMs)
  }
}
