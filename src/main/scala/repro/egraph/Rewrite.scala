package repro.egraph

import repro.core.Expr
import scala.collection.mutable

/** Right-hand-side templates for rewrite rules. [[RVar]] reuses the
  * matched e-class directly (no shifting); [[RRemap]] extracts the
  * matched class's smallest representative, remaps its free De Bruijn
  * indices, and re-inserts it — the standard workaround for moving terms
  * across binders inside an e-graph (Sec. 5.4). */
sealed trait RT
final case class RVar(n: String) extends RT
final case class RNode(op: String, cs: RT*) extends RT
/** Node whose op was captured by a [[POpVar]] during matching. */
final case class ROpVar(opVar: String, cs: RT*) extends RT
final case class RRemap(n: String, f: Int => Int) extends RT
final case class RLit(e: Expr) extends RT
/** Node whose op is computed from the match (e.g. a dict that keeps its
  * phys flag but drops @unique). */
final case class RNodeF(opf: (RuleCtx, Subst) => String, cs: RT*) extends RT

/** Context handed to appliers: representative terms are from the table
  * computed at the start of the iteration, keyed by the class ids stored
  * in the substitution (canonical at match time). `symIsScalar` exposes
  * the statistics' knowledge of which global symbols are scalars, for
  * type-gated rules. */
final class RuleCtx(val eg: EGraph, reprs: Map[Int, Expr],
                    val symIsScalar: String => Boolean = _ => false) {
  private val fvs = mutable.HashMap.empty[Int, Set[Int]]
  def repr(cls: Int): Expr =
    reprs.getOrElse(cls, reprs.getOrElse(eg.find(cls), Extract.smallest(eg, cls)))
  /** `Expr.freeVars(repr(cls))`, memoized for the classes of the table. */
  def freeVars(cls: Int): Set[Int] =
    if (reprs.contains(cls)) fvs.getOrElseUpdate(cls, Expr.freeVars(reprs(cls)))
    else Expr.freeVars(repr(cls))
}

final case class Rule(
    name: String,
    lhs: Pat,
    rhs: (RuleCtx, Subst) => Option[Int],
    cond: (RuleCtx, Subst) => Boolean = (_, _) => true)

object Rule {

  /** Instantiate an RHS template, returning its e-class. */
  def instantiate(ctx: RuleCtx, s: Subst, t: RT): Int = t match {
    case RVar(n)    => s(n)
    case RLit(e)    => ctx.eg.addExpr(e)
    case RRemap(n, f) =>
      ctx.eg.addExpr(Expr.remapFree(ctx.repr(s(n)), f))
    case RNode(op, cs @ _*) =>
      ctx.eg.add(ENode(op, cs.toVector.map(instantiate(ctx, s, _))))
    case ROpVar(opVar, cs @ _*) =>
      ctx.eg.add(ENode(s.op(opVar), cs.toVector.map(instantiate(ctx, s, _))))
    case RNodeF(opf, cs @ _*) =>
      ctx.eg.add(ENode(opf(ctx, s), cs.toVector.map(instantiate(ctx, s, _))))
  }

  /** Simple rule: pattern -> template. */
  def simple(name: String, lhs: Pat, rhs: RT,
             cond: (RuleCtx, Subst) => Boolean = (_, _) => true): Rule =
    Rule(name, lhs, (ctx, s) => Some(instantiate(ctx, s, rhs)), cond)

  /** Condition: the matched class has a representative whose free
    * variables avoid `banned` — sound because any representative without
    * the variable denotes a value independent of it. */
  def fvAvoid(n: String, banned: Set[Int]): (RuleCtx, Subst) => Boolean =
    (ctx, s) => ctx.freeVars(s(n)).intersect(banned).isEmpty

  def allOf(cs: ((RuleCtx, Subst) => Boolean)*): (RuleCtx, Subst) => Boolean =
    (ctx, s) => cs.forall(_(ctx, s))
}

/** Saturation limits and the metrics the paper reports in Table 4. */
final case class SatConfig(
    maxIters: Int = 30,
    maxNodes: Int = 20000,
    timeoutMs: Long = 5000,
    /** Cap on matches applied per rule per iteration (search pruning);
      * effectively uncapped by default — the node budget is the real
      * limit, and a small cap starves matches on later-derived classes. */
    maxMatchesPerRule: Int = 1000000)

final case class RunStats(
    timeMs: Double, iters: Int, nodes: Int, classes: Int, memos: Long,
    saturated: Boolean,
    /** The wall-clock limit, not a work budget, stopped the search. */
    timedOut: Boolean = false) {
  def +(o: RunStats): RunStats = RunStats(
    timeMs + o.timeMs, iters + o.iters, math.max(nodes, o.nodes),
    math.max(classes, o.classes), memos + o.memos, saturated && o.saturated,
    timedOut || o.timedOut)
}

object Saturate {

  /** Root-op index over `ids`: for each op, the classes holding a node
    * with that op, in `ids` order, so that a rule visits only the classes
    * its pattern can match at the root. */
  final class Roots(eg: EGraph, ids: Vector[Int]) {
    private val byOp =
      ids.flatMap(c => eg.classes(c).map(_.op).distinct.map(_ -> c)).groupMap(_._1)(_._2)
    def apply(pat: Pat): Vector[Int] = pat match {
      case PNode(op, _) => byOp.getOrElse(op, Vector.empty)
      case POpVar(_, pred, _) => ids.filter(c => eg.classes(c).exists(n => pred(n.op)))
      case PVar(_) => ids
    }
  }

  /** Run equality saturation: repeatedly e-match all rules against all
    * classes, apply the matches, and rebuild congruence, until nothing
    * changes or a limit is hit (Sec. 5.3). */
  def run(eg: EGraph, rules: Seq[Rule], cfg: SatConfig = SatConfig(),
          symIsScalar: String => Boolean = _ => false): RunStats = {
    val t0 = System.nanoTime()
    val programs = rules.map(r => new Matcher.Program(r.lhs))
    var iter = 0
    var saturated = false
    var timedOut = false
    var stop = false
    while (!stop && iter < cfg.maxIters) {
      iter += 1
      val reprs = Extract.reprTable(eg)
      val ctx = new RuleCtx(eg, reprs, symIsScalar)
      val versionBefore = eg.version
      val memoBefore = eg.memoCount

      // Collect matches first (egg-style), then apply. Matching leaves the
      // graph unchanged, so the root index holds for the whole pass.
      val matches = mutable.ArrayBuffer.empty[(Rule, Subst, Int)]
      val roots = new Roots(eg, eg.classIds)
      rules.lazyZip(programs).foreach { (rule, program) =>
        var count = 0
        val cands = roots(rule.lhs)
        var i = 0
        while (i < cands.length && count < cfg.maxMatchesPerRule) {
          val cls = cands(i)
          program.foreach(eg, cls) { s =>
            if (count < cfg.maxMatchesPerRule && rule.cond(ctx, s)) {
              matches += ((rule, s, cls))
              count += 1
            }
          }
          i += 1
        }
      }

      matches.foreach { case (rule, s, cls) =>
        if (eg.nodeCount < cfg.maxNodes) {
          rule.rhs(ctx, s).foreach { newCls =>
            eg.union(cls, newCls)
          }
        }
      }
      eg.rebuild()

      val elapsed = (System.nanoTime() - t0) / 1e6
      if (eg.version == versionBefore && eg.memoCount == memoBefore) {
        saturated = true; stop = true
      } else if (eg.nodeCount >= cfg.maxNodes || elapsed >= cfg.timeoutMs) {
        timedOut = eg.nodeCount < cfg.maxNodes; stop = true
      }
    }
    RunStats((System.nanoTime() - t0) / 1e6, iter, eg.nodeCount, eg.classCount,
      eg.memoCount, saturated, timedOut)
  }
}
