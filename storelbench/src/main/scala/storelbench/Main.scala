package storelbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path, Paths, StandardCopyOption}
import java.security.MessageDigest
import repro.baselines.{Linalg, Systems}
import repro.core._
import repro.egraph.{RunStats, SatConfig}
import repro.exec._
import repro.storage.Storage
import scala.collection.mutable
import scala.jdk.CollectionConverters._

final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean,
                      out: Path, digest: Option[String])

object Args {
  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad argument ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(need("workload"), need("seed").toLong, need("seconds").toDouble,
      need("trace") match {
        case "0" => false
        case "1" => true
        case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, not $t")
      },
      Paths.get(kv.getOrElse("out", "storelbench/out")), kv.get("digest"))
  }
}

/** Benchmark entry point: `--workload <name> --seed <n> --seconds <s>
  * --trace <0|1> [--out <dir>] [--digest <source digest>]`. Prints
  * progress lines, then the metrics by name with units, and as its last
  * line one JSON object with `correct`, `attempted`, `failed` and
  * `metrics`. */
object Main {

  /** Limit on any single operation (one case's pass, set-up or traced
    * optimization). A case over it fails and ends the run. */
  val OpLimitMs = 100000L
  /** Limit on the whole run, counted from process start. */
  val RunLimitMs = 170000L

  def main(argv: Array[String]): Unit = {
    val args = try Args.parse(argv) catch {
      case e: IllegalArgumentException =>
        System.err.println(e.getMessage); sys.exit(2)
    }
    val wl = Workloads.all.find(_.name == args.workload).getOrElse {
      System.err.println(s"unknown workload ${args.workload}; one of " +
        Workloads.all.map(_.name).mkString(", "))
      sys.exit(2)
    }
    new Bench(args, wl).run()
  }
}

/** One run of one workload. Every time it reports is a wall time scaled
  * by the host speed measured around it (see [[HostSpeed]]); the raw wall
  * times go to the trace file next to the scaled ones. */
final class Bench(args: Args, wl: Workload) {
  private val cfg = Workloads.config
  private val ledger = new Ledger
  private val startMs = ManagementFactory.getRuntimeMXBean.getStartTime
  /** Process start to `main`: JVM boot and class loading. */
  private val bootS = (System.currentTimeMillis() - startMs) / 1e3
  private val runDeadlineNs =
    System.nanoTime() + (Main.RunLimitMs - (System.currentTimeMillis() - startMs)) * 1000000L
  private val speed = new SpeedMeter
  /** First fingerprint seen per case; every later one must equal it. */
  private val fingerprints = mutable.LinkedHashMap.empty[String, String]
  private val plans = mutable.LinkedHashMap.empty[String, (Expr, Map[String, Value])]
  private val caseNames = mutable.LinkedHashSet.empty[String]

  def run(): Unit = {
    startWatchdog()
    try {
      ledger.record("boot_s:*", bootS * speed.factorNow())
      val inputs = (1 to wl.setupReps).map(setup).last
      inputs.foreach { in =>
        val gc0 = gcMs()
        wl.shape match {
          case s: OptimizeEach => optimizePasses(in, s)
          case ExecuteCached => executePasses(in)
        }
        ledger.record("gc_ms:*", gcMs() - gc0)
        if (args.trace) {
          tracedPass(in)
          anchors(in)
        }
        compareRecord()
      }
    } catch {
      case t: Throwable =>
        val op = ledger.begin("*", "harness", Long.MaxValue)
        ledger.fail(op, s"threw $t")
    }
    emit()
  }

  /** Records a wall time both raw and scaled by the host-speed factor `k`. */
  private def recordMs(key: String, ns: Long, k: Double): Unit = {
    ledger.record(key, ns / 1e6 * k)
    ledger.record(s"raw.$key", ns / 1e6)
  }

  // ---- set-up ---------------------------------------------------------------

  /** Generates the inputs and their reference results. For execute-large
    * it also builds the storages and optimizes every plan; otherwise it
    * optimizes and runs MMM/CSR,CSR once, untimed, so that the measured
    * passes do not start on a cold JIT. */
  private def setup(rep: Int): Option[Inputs] = {
    val ((inputs, prepNs), k0) =
      speed.around(timed(attempt("*", s"setup $rep")(_ => wl.prepare(args.seed))))
    var setupMs = prepNs / 1e6 * k0
    inputs.foreach { in =>
      in.cases.foreach(c => caseNames += c.name)
      val prepared =
        if (wl.shape == ExecuteCached) in.cases else Workloads.anchorCases(in.a, in.b).take(1)
      prepared.foreach { c =>
        attempt(c.name, s"setup $rep") { op =>
          val ((storages, buildNs, res, optNs), k) = speed.around {
            val (storages, buildNs) = timed(c.storages())
            val (res, optNs) = timed(optimize(op, c, storages))
            (storages, buildNs, res, optNs)
          }
          setupMs += (buildNs + optNs) / 1e6 * k
          if (wl.shape == ExecuteCached) {
            recordMs(s"build_ms:${c.name}", buildNs, k)
            recordMs(s"optimize_ms:${c.name}", optNs, k)
            plans(c.name) = (res.plan, symtab(c, storages))
          } else {
            val ((v, ns), k2) = speed.around(timed(Interp.run(res.plan, symtab(c, storages))))
            setupMs += ns / 1e6 * k2
            check(op, c, v)
          }
        }
      }
    }
    ledger.record("setup_s:*", setupMs / 1e3)
    inputs
  }

  // ---- untraced passes ------------------------------------------------------

  private def optimizePasses(in: Inputs, shape: OptimizeEach): Unit = {
    val t0 = System.nanoTime()
    val budgetNs = (args.seconds * 1e9).toLong
    var passes = 0
    var lastWallNs = 0L
    // A pass is never cut short: `minPasses` always run, and another starts
    // only if one more of the same length still fits in --seconds.
    while (passes < shape.minPasses ||
      (System.nanoTime() - t0 + lastWallNs <= budgetNs &&
        System.nanoTime() + lastWallNs < runDeadlineNs)) {
      passes += 1
      val w0 = System.nanoTime()
      val correctRuns = mutable.LinkedHashMap.empty[String, Double]
      in.cases.foreach { c =>
        attempt(c.name, s"pass $passes") { op =>
          // Optimization and the runs are scaled apart: one can be long
          // while the other is short.
          val ((storages, buildNs, res, optNs), k) = speed.around {
            val (storages, buildNs) = timed(c.storages())
            val (res, optNs) = timed(optimize(op, c, storages))
            (storages, buildNs, res, optNs)
          }
          val st = symtab(c, storages)
          val ((warmNs, runs), kr) = speed.around {
            val (_, warmNs) = timed((1 to shape.warmRuns).foreach(_ => Interp.run(res.plan, st)))
            (warmNs, (1 to shape.runs).map(_ => timed(Interp.run(res.plan, st))))
          }
          runs.foreach { case (v, _) => check(op, c, v) }
          ledger.record(s"pass_ms:${c.name}",
            (buildNs + optNs) / 1e6 * k + (warmNs + runs.map(_._2).sum) / 1e6 * kr)
          recordMs(s"build_ms:${c.name}", buildNs, k)
          recordMs(s"optimize_ms:${c.name}", optNs, k)
          runs.foreach { case (_, ns) => recordMs(s"run_ms:${c.name}", ns, kr) }
          ledger.record(s"host_factor:${c.name}", k)
          ledger.fact(c.name, "out_nnz", Value.toCoo(runs.last._1).length)
          plans(c.name) = (res.plan, st)
          val runMs = Stat.median(runs.map(_._2 / 1e6 * kr))
          if (op.failure == null) correctRuns(c.name) = runMs
          ledger.say(f"pass $passes%-2d ${c.name}%-22s build ${buildNs / 1e6 * k}%8.1f ms  " +
            f"optimize ${optNs / 1e6 * k}%9.1f ms  run $runMs%8.2f ms  host $k%.2f  " +
            s"${Option(op.failure).getOrElse("ok")}")
        }
      }
      lastWallNs = System.nanoTime() - w0
      if (shape.pick) pick(in, correctRuns)
    }
  }

  /** Table 3's choice: per kernel, the fastest candidate whose result
    * equals the reference. A kernel with no correct candidate gets none. */
  private def pick(in: Inputs, correctRuns: collection.Map[String, Double]): Unit =
    in.cases.groupBy(_.kernel).toSeq.sortBy(_._1).foreach { case (kernel, cs) =>
      val ok = cs.filter(c => correctRuns.contains(c.name))
      val chosen = if (ok.isEmpty) "none" else ok.minBy(c => correctRuns(c.name)).name
      ledger.fact(s"pick:$kernel", "format", chosen)
      ledger.say(s"pick $kernel: $chosen")
    }

  private def executePasses(in: Inputs): Unit = {
    val t0 = System.nanoTime()
    val budgetNs = (args.seconds * 1e9).toLong
    var passes = 0
    // Pass 1 warms the interpreter up and is checked but not timed.
    while (passes < 2 ||
      (System.nanoTime() - t0 < budgetNs && System.nanoTime() < runDeadlineNs - 5000000000L)) {
      passes += 1
      val (runs, k) = speed.around(in.cases.flatMap { c =>
        plans.get(c.name).flatMap { case (plan, st) =>
          attempt(c.name, s"run $passes") { op =>
            val (v, ns) = timed(Interp.run(plan, st))
            (c, op, v, ns)
          }
        }
      })
      runs.foreach { case (c, op, v, ns) =>
        check(op, c, v)
        if (passes == 1) ledger.fact(c.name, "out_nnz", Value.toCoo(v).length)
        else {
          recordMs(s"run_ms:${c.name}", ns, k)
          ledger.record(s"pass_ms:${c.name}", ns / 1e6 * k)
        }
      }
    }
    ledger.say(s"$passes passes over ${plans.size} cached plans")
    in.cases.foreach { c =>
      ledger.say(f"${c.name}%-22s optimize ${Stat.median(ledger.values(s"optimize_ms:${c.name}"))}%9.1f ms  " +
        f"run ${Stat.median(ledger.values(s"run_ms:${c.name}"))}%8.2f ms")
    }
  }

  // ---- traced pass ----------------------------------------------------------

  /** Traces each case once more. A case whose untraced optimization would
    * not fit again before the run's deadline is skipped, not failed: the
    * trace file says so, and its layer numbers are missing from the sums. */
  private def tracedPass(in: Inputs): Unit = in.cases.foreach { c =>
    val needNs = (1.5e6 * Stat.median(ledger.values(s"raw.optimize_ms:${c.name}"))).toLong
    if (System.nanoTime() + needNs > runDeadlineNs) {
      ledger.fact(c.name, "traced", "skipped: not enough time left in the run")
      ledger.say(s"traced ${c.name}: skipped, not enough time left in the run")
    } else attempt(c.name, "traced") { op =>
      val (tr, k) = speed.around(Traced.optimize(c.tp, c.storages(), c.extraCards, cfg))
      abortCheck(op, tr.stage1.stats, tr.stage2.stats)
      agree(op, c.name, fingerprint(tr.plan, tr.cost, tr.stage1.stats, tr.stage2.stats))
      val satNs = tr.stage1.saturateNs + tr.stage2.saturateNs
      val extractNs = tr.stage1.extractNs + tr.stage2.extractNs
      val s = Seq(tr.stage1.stats, tr.stage2.stats)
      def rec(key: String, v: Double): Unit = ledger.record(s"$key:${c.name}", v)
      def recNs(key: String, ns: Long): Unit = recordMs(s"$key:${c.name}", ns, k)
      recNs("core.stage1_ms", tr.stage1.wallNs)
      recNs("core.stage2_ms", tr.stage2.wallNs)
      recNs("core.extract_ms", extractNs)
      recNs("egraph.saturate_ms", satNs)
      recNs("egraph.apply_ms", tr.applyNs)
      recNs("egraph.cond_ms", tr.condNs)
      recNs("egraph.self_ms", satNs - tr.applyNs - tr.condNs)
      recNs("traced_ms", tr.stage1.wallNs + tr.stage2.wallNs)
      rec("core.rounds", tr.stage1.rounds + tr.stage2.rounds)
      rec("core.plan_cost", tr.cost)
      rec("egraph.matches", tr.count(_.matches))
      rec("egraph.applies", tr.count(_.applies))
      rec("egraph.iters", s.map(_.iters).sum)
      rec("egraph.nodes", s.map(_.nodes).sum)
      rec("egraph.classes", s.map(_.classes).sum)
      rec("egraph.memos", s.map(_.memos).sum)
      ledger.fact(c.name, "rules", tr.rules.filter(_._2.conds > 0).map { case (n, t) =>
        n -> Seq("conds" -> t.conds, "matches" -> t.matches, "applies" -> t.applies,
          "cond_ms" -> t.condNs / 1e6 * k, "apply_ms" -> t.applyNs / 1e6 * k)
      })
      ledger.say(f"traced ${c.name}%-22s stage1 ${tr.stage1.wallNs / 1e6 * k}%9.1f ms  " +
        f"stage2 ${tr.stage2.wallNs / 1e6 * k}%9.1f ms  extract ${extractNs / 1e6 * k}%7.1f ms  " +
        s"${Option(op.failure).getOrElse("same plan")}")
    }
  }

  /** The plan's run time over the library primitive's, on the workload's
    * A and B (median of five runs each, after one warm-up run). */
  private def anchors(in: Inputs): Unit = {
    val Seq(mmmCase, sumCase) = Workloads.anchorCases(in.a, in.b)
    val aCsr = Linalg.CSR.from(in.a); val bCsr = Linalg.CSR.from(in.b)
    val aD = Linalg.DenseMat.from(in.a); val bD = Linalg.DenseMat.from(in.b)
    Seq(
      ("exec.mmm_csr_vs_linalg", mmmCase, () => Systems.SciPyLike.mmm(aCsr, bCsr)),
      ("exec.summmm_dense_vs_linalg", sumCase, () => Systems.NumPyLike.sumMmm(aD, bD))
    ).foreach { case (metric, c, lib) =>
      attempt(c.name, "anchor") { op =>
        val (plan, st) = plans.getOrElse(c.name, {
          val storages = c.storages()
          (optimize(op, c, storages).plan, symtab(c, storages))
        })
        val (v, planMs) = medianMs(Interp.run(plan, st))
        check(op, c, v)
        val (_, libMs) = medianMs(lib())
        ledger.record(s"$metric:*", planMs / libMs)
        ledger.say(f"anchor ${c.name}%-22s plan $planMs%8.2f ms  library $libMs%8.2f ms")
      }
    }
  }

  // ---- checks -----------------------------------------------------------------

  private def optimize(op: Op, c: Case, storages: Seq[Storage]): Optimizer.OptResult = {
    val res = Optimizer.optimize(c.tp, storages, c.extraCards, cfg)
    abortCheck(op, res.stage1, res.stage2)
    agree(op, c.name, fingerprint(res.plan, res.cost, res.stage1, res.stage2))
    res
  }

  private def check(op: Op, c: Case, v: Value): Unit =
    if (!Value.deepEq(v, c.reference)) ledger.fail(op, "result differs from the reference")

  /** The wall-clock abort can only have cut a stage that neither
    * saturated nor reached a work budget (exact for one round), or one
    * that ran past `timeoutMs` in total. */
  private def abortCheck(op: Op, s1: RunStats, s2: RunStats): Unit = {
    def aborted(s: RunStats, c: SatConfig): Boolean =
      !s.saturated && ((s.nodes < c.maxNodes && s.iters < c.maxIters) || s.timeMs >= c.timeoutMs)
    if (aborted(s1, cfg.stage1)) ledger.fail(op, s"stage 1 hit the wall-clock abort: $s1")
    if (aborted(s2, cfg.stage2)) ledger.fail(op, s"stage 2 hit the wall-clock abort: $s2")
  }

  private def agree(op: Op, caseName: String, fp: String): Unit = {
    val first = fingerprints.getOrElseUpdate(caseName, fp)
    ledger.fact(caseName, "fingerprint", first)
    if (fp != first) ledger.fail(op, s"plan or counts changed: $fp, earlier $first")
  }

  private def fingerprint(plan: Expr, cost: Double, s1: RunStats, s2: RunStats): String = {
    def counts(s: RunStats) =
      s"${s.iters}/${s.nodes}/${s.classes}/${s.memos}/${if (s.saturated) "sat" else "cut"}"
    val hash = MessageDigest.getInstance("SHA-256").digest(plan.toString.getBytes(UTF_8))
      .take(8).map(b => f"$b%02x").mkString
    s"plan=$hash s1=${counts(s1)} s2=${counts(s2)} cost=$cost"
  }

  /** Plans and counts must also repeat across runs of the same sources
    * and seed: the first run stores its fingerprints, later runs compare. */
  private def compareRecord(): Unit = args.digest.foreach { digest =>
    val dir = args.out.resolve("records")
    val file = dir.resolve(s"${wl.name}-seed${args.seed}-$digest.tsv")
    if (Files.exists(file)) {
      val stored = Files.readAllLines(file, UTF_8).asScala
        .map(_.split("\t", 2)).collect { case Array(k, v) => k -> v }.toMap
      fingerprints.foreach { case (c, fp) =>
        stored.get(c).filter(_ != fp).foreach { old =>
          val op = ledger.begin(c, "record", Long.MaxValue)
          ledger.fail(op, s"plan or counts differ from an earlier run: $fp, earlier $old")
          ledger.end()
        }
      }
    } else if (fingerprints.nonEmpty) {
      Files.createDirectories(dir)
      val tmp = Files.createTempFile(dir, "record", ".tmp")
      Files.write(tmp, fingerprints.map { case (c, fp) => s"$c\t$fp" }.asJava, UTF_8)
      Files.move(tmp, file, StandardCopyOption.REPLACE_EXISTING)
    }
  }

  // ---- plumbing -----------------------------------------------------------------

  private def attempt[A](caseName: String, what: String)(body: Op => A): Option[A] = {
    val op = ledger.begin(caseName, what, Main.OpLimitMs * 1000000L)
    try Some(body(op))
    catch { case t: Throwable => ledger.fail(op, s"threw $t"); None }
    finally ledger.end()
  }

  private def symtab(c: Case, storages: Seq[Storage]): Map[String, Value] =
    storages.flatMap(_.symbols).toMap ++ c.extraVals

  private def timed[A](f: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val a = f
    (a, System.nanoTime() - t0)
  }

  private def medianMs[A](f: => A): (A, Double) = {
    f
    val runs = (1 to 5).map(_ => timed(f))
    (runs.last._1, Stat.median(runs.map(_._2 / 1e6)))
  }

  private def gcMs(): Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).filter(_ >= 0).sum.toDouble

  private def startWatchdog(): Unit = {
    val dog = new Thread(() => {
      var done = false
      while (!done) {
        Thread.sleep(50)
        val now = System.nanoTime()
        if (now > ledger.deadlineNs || now > runDeadlineNs) {
          val reason =
            if (now > runDeadlineNs) s"run over its ${Main.RunLimitMs / 1000} s limit"
            else s"over its ${Main.OpLimitMs / 1000} s limit"
          val op = Option(ledger.current).getOrElse(ledger.begin("*", "deadline", Long.MaxValue))
          ledger.fail(op, reason)
          if (emit()) { System.out.flush(); Runtime.getRuntime.halt(0) }
          done = true
        }
      }
    }, "storelbench-watchdog")
    dog.setDaemon(true)
    dog.start()
  }

  // ---- report -----------------------------------------------------------------

  /** Median of `key` for each case that has samples. */
  private def perCase(key: String): Seq[Double] =
    caseNames.toSeq.map(c => ledger.values(s"$key:$c")).filter(_.nonEmpty).map(Stat.median)

  private def whole(key: String): Double = Stat.median(ledger.values(s"$key:*"))

  private def emit(): Boolean = ledger.emitOnce {
    val attempted = math.max(1, ledger.attempted)
    val failures = ledger.failures
    val optimizeMs = Stat.geomean(perCase("optimize_ms"))
    val endToEnd = Seq(
      ("optimize_ms", optimizeMs, "ms"),
      ("run_ms", Stat.geomean(perCase("run_ms")), "ms"),
      ("pass_s", perCase("pass_ms").sum / 1e3, "s"),
      ("setup_s", whole("boot_s") + whole("setup_s"), "s"),
      ("ok_ratio", (attempted - failures.length).toDouble / attempted, "ratio"))
    def total(key: String): Double = perCase(key).sum
    val saturateMs = total("egraph.saturate_ms")
    val matches = total("egraph.matches")
    val perLayer = Seq(
      ("storage.build_ms", total("build_ms"), "ms"),
      ("core.stage1_ms", total("core.stage1_ms"), "ms"),
      ("core.stage2_ms", total("core.stage2_ms"), "ms"),
      ("core.extract_ms", total("core.extract_ms"), "ms"),
      ("core.rounds", total("core.rounds"), "count"),
      ("core.plan_cost", total("core.plan_cost"), "cost"),
      ("egraph.saturate_ms", saturateMs, "ms"),
      ("egraph.apply_ms", total("egraph.apply_ms"), "ms"),
      ("egraph.cond_ms", total("egraph.cond_ms"), "ms"),
      ("egraph.self_ms", total("egraph.self_ms"), "ms"),
      ("egraph.matches", matches, "count"),
      ("egraph.applies", total("egraph.applies"), "count"),
      ("egraph.apply_ratio", if (matches > 0) total("egraph.applies") / matches else 0.0, "ratio"),
      ("egraph.iters", total("egraph.iters"), "count"),
      ("egraph.nodes", total("egraph.nodes"), "count"),
      ("egraph.classes", total("egraph.classes"), "count"),
      ("egraph.memos", total("egraph.memos"), "count"),
      ("egraph.memos_per_s", if (saturateMs > 0) total("egraph.memos") / (saturateMs / 1e3) else 0.0, "1/s"),
      ("exec.run_ms", total("run_ms"), "ms"),
      ("exec.out_nnz", caseNames.toSeq.flatMap(c => ledger.facts.get(c).flatMap(_.get("out_nnz")))
        .map(_.asInstanceOf[Int].toDouble).sum, "count"),
      ("exec.mmm_csr_vs_linalg", whole("exec.mmm_csr_vs_linalg"), "ratio"),
      ("exec.summmm_dense_vs_linalg", whole("exec.summmm_dense_vs_linalg"), "ratio"),
      ("jvm.gc_ms", whole("gc_ms"), "ms"),
      ("trace.overhead_ratio",
        if (optimizeMs > 0) Stat.geomean(perCase("traced_ms")) / optimizeMs else 0.0, "ratio"))
    val reported = if (args.trace) perLayer else endToEnd

    writeTraceFile(endToEnd ++ (if (args.trace) perLayer else Nil), failures, attempted)
    failures.foreach(f => println(s"FAILED ${f.caseName} (${f.what}): ${f.failure}"))
    reported.foreach { case (n, v, u) => println(f"$n%-28s $v%.6g $u") }
    println(Json(Seq(
      "correct" -> failures.isEmpty,
      "attempted" -> attempted,
      "failed" -> failures.length,
      "metrics" -> reported.map { case (n, v, u) => n -> Seq("value" -> v, "unit" -> u) })))
    System.out.flush()
  }

  /** Full detail of the run next to the result line: every metric, each
    * case's fingerprint and per-rule counts, Table 3's picks, failures. */
  private def writeTraceFile(metrics: Seq[(String, Double, String)], failures: Seq[Op],
                             attempted: Int): Unit =
    try {
      Files.createDirectories(args.out)
      val file = args.out.resolve(s"${wl.name}-seed${args.seed}-trace${if (args.trace) 1 else 0}.json")
      Files.write(file, Json(Seq(
        "workload" -> wl.name, "seed" -> args.seed, "seconds" -> args.seconds,
        "trace" -> args.trace, "config" -> cfg.toString, "raw_boot_s" -> bootS,
        "reference_probe_ms" -> HostSpeed.ReferenceMs,
        "attempted" -> attempted,
        "failures" -> failures.map(f => Seq("case" -> f.caseName, "op" -> f.what, "reason" -> f.failure)),
        "metrics" -> metrics.map { case (n, v, u) => n -> Seq("value" -> v, "unit" -> u) },
        "per_case" -> caseNames.toSeq.map { c =>
          c -> (ledger.facts.get(c).map(_.toSeq).getOrElse(Nil) ++
            Seq("optimize_ms", "raw.optimize_ms", "run_ms", "raw.run_ms", "build_ms",
              "host_factor", "core.stage1_ms", "core.stage2_ms",
              "core.extract_ms", "egraph.saturate_ms", "egraph.matches", "egraph.applies",
              "egraph.iters", "egraph.nodes", "egraph.classes", "egraph.memos", "core.plan_cost")
              .map(k => k -> ledger.values(s"$k:$c")).filter(_._2.nonEmpty)
              .map { case (k, vs) => k -> Stat.median(vs) })
        },
        "picks" -> ledger.facts.toSeq.filter(_._1.startsWith("pick:"))
          .map { case (k, f) => k.drop(5) -> f("format") }
      )).getBytes(UTF_8))
    } catch { case e: java.io.IOException => System.err.println(s"trace file not written: $e") }
}

/** Minimal JSON writer: `Seq[(String, _)]` is an object, other `Seq`s are
  * arrays. */
object Json {
  def apply(v: Any): String = v match {
    case null => "null"
    case s: String => quote(s)
    case b: Boolean => b.toString
    case d: Double => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int => n.toString
    case n: Long => n.toString
    case kvs: Seq[_] if kvs.forall { case (_: String, _) => true; case _ => false } && kvs.nonEmpty =>
      kvs.map { case (k: String, x) => s"${quote(k)}: ${apply(x)}" }.mkString("{", ", ", "}")
    case xs: Seq[_] => xs.map(apply).mkString("[", ", ", "]")
    case other => quote(other.toString)
  }

  private def quote(s: String): String =
    s.map {
      case '"' => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    }.mkString("\"", "", "\"")
}
