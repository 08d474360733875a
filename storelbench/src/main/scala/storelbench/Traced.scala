package storelbench

import repro.core._
import repro.egraph._
import repro.storage.Storage
import scala.collection.mutable

/** Counters for one rewrite rule: `conds` raw e-matches offered to its
  * condition, `matches` those the condition accepted (what `Saturate.run`
  * queues), `applies` those instantiated before the node budget cut the
  * queue off. */
final class RuleTrace {
  var conds = 0L
  var matches = 0L
  var applies = 0L
  var condNs = 0L
  var applyNs = 0L
}

/** One optimizer stage as observed from outside `Saturate.run`. */
final case class StageTrace(stats: RunStats, rounds: Int, wallNs: Long,
                            saturateNs: Long, extractNs: Long)

final case class TracedResult(plan: Expr, cost: Double,
                              stage1: StageTrace, stage2: StageTrace,
                              rules: Seq[(String, RuleTrace)]) {
  def condNs: Long = rules.map(_._2.condNs).sum
  def applyNs: Long = rules.map(_._2.applyNs).sum
  def count(f: RuleTrace => Long): Long = rules.map(r => f(r._2)).sum
}

/** `Optimizer.optimize` rebuilt from its public pieces, with a timer
  * around every call into `Saturate.run` and `CostModel.extract` and
  * counting wrappers around every rule's `cond` and `rhs` closures. Each
  * step mirrors `Optimizer.saturateRounds`, so the plan must equal the
  * untraced one; the harness checks that it does. */
object Traced {

  private def instrument(stage: String, rules: Seq[Rule],
                         out: mutable.LinkedHashMap[String, RuleTrace]): Seq[Rule] =
    rules.map { r =>
      val t = out.getOrElseUpdate(s"$stage/${r.name}", new RuleTrace)
      r.copy(
        cond = (ctx, s) => {
          val t0 = System.nanoTime()
          val ok = r.cond(ctx, s)
          t.condNs += System.nanoTime() - t0
          t.conds += 1
          if (ok) t.matches += 1
          ok
        },
        rhs = (ctx, s) => {
          val t0 = System.nanoTime()
          val cls = r.rhs(ctx, s)
          t.applyNs += System.nanoTime() - t0
          t.applies += 1
          cls
        })
    }

  private def stage(e0: Expr, rules: Seq[Rule], stats: Stats, cfg: SatConfig,
                    rounds: Int, params: CostParams): (Expr, Double, StageTrace) = {
    val t0 = System.nanoTime()
    val cm = new CostModel(stats, params)
    val symIsScalar: String => Boolean = n => stats.card(n).isScalar
    var e = e0
    var cost = Double.MaxValue
    var agg = RunStats(0, 0, 0, 0, 0, saturated = true)
    var round = 0
    var progress = true
    var satNs = 0L
    var extNs = 0L
    while (round < rounds && progress) {
      round += 1
      val eg = new EGraph
      val root = eg.addExpr(e)
      val t1 = System.nanoTime()
      val rs = Saturate.run(eg, rules, cfg, symIsScalar)
      val t2 = System.nanoTime()
      val (best, c) = cm.extract(eg, root)
      extNs += System.nanoTime() - t2
      satNs += t2 - t1
      agg += rs
      progress = best != e
      e = best
      cost = c
    }
    (e, cost, StageTrace(agg, round, System.nanoTime() - t0, satNs, extNs))
  }

  def optimize(tp: Expr, storages: Seq[Storage], extra: Map[String, Card],
               cfg: Optimizer.Config): TracedResult = {
    val rules = mutable.LinkedHashMap.empty[String, RuleTrace]
    val (tp1, _, s1) = stage(tp, instrument("stage1", Rules.logical, rules),
      Optimizer.logicalStats(storages, extra), cfg.stage1, cfg.rounds1, cfg.params)
    val (plan, cost, s2) = stage(Optimizer.compose(tp1, storages),
      instrument("stage2", Rules.physicalStage, rules),
      Optimizer.physicalStats(storages, extra), cfg.stage2, cfg.rounds2, cfg.params)
    TracedResult(plan, cost, s1, s2, rules.toSeq)
  }
}
