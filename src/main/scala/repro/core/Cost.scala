package repro.core

import repro.egraph._
import scala.collection.mutable

/** Cost-model parameters — the γ's of Fig. 6. Dense arrays iterate and
  * look up cheaper than hash maps; logical (un-annotated) dictionary
  * construction carries a prohibitive penalty, playing the role of the
  * paper's ∞ while keeping plans comparable before physical lowering. */
final case class CostParams(
    iterDense: Double = 1.0,
    iterHash: Double = 2.5,
    lookupDense: Double = 1.0,
    lookupHash: Double = 4.0,
    insertDense: Double = 1.0,
    insertHash: Double = 4.0,
    /** Multiplier on inserts whose nested values may collide and merge
      * (allocation + copy of the accumulated value). */
    nestedMerge: Double = 8.0,
    /** One-time allocation/zeroing factor for building a dense array:
      * charged per construction as denseAlloc × denseWidth. Makes @hash
      * win for very sparse outputs and @dense win once the number of
      * entries approaches the dimension width (the Fig. 8 crossover). */
    denseAlloc: Double = 0.5,
    insertLogical: Double = 64.0,
    /** Per-element penalty for +,* applied directly to dictionaries.
      * Must exceed the logical-insert penalty: a plan written as explicit
      * loops over logical dicts can still be lowered to @dense/@hash by
      * stage 2, while a dictionary-valued * or + cannot — so the
      * optimizer must prefer loop forms (Sec. 5.6 assigns dict ops ∞). */
    dictOp: Double = 256.0,
    /** Per-element cost of writing a materialized `let` binding. */
    materialize: Double = 1.0,
    scalarOp: Double = 1.0)

/** Cardinality (Fig. 5) + cost (Fig. 6) analysis. The environment holds
  * the [[Card]] each De Bruijn variable is bound to, so `sum(<k,v> in
  * e1) e2` costs `cost(e1) + γ_iter·|e1|·cost(e2)` with `v`'s card taken
  * one level down in `e1`'s nested card. */
final class CostModel(stats: Stats, p: CostParams = CostParams()) {

  type Res = (Card, Double)

  /** Analyze a concrete expression (used in tests and for candidate
    * comparison outside the e-graph). */
  def analyze(e: Expr, env: List[Card] = Nil): Res = e match {
    case Num(_) => (Card.scalar, 0.0)
    case Vr(i)  => (if (i < env.length) env(i) else Card.scalar, 0.0)
    case Sym(n) => (stats.card(n), 0.0)
    case Bin(op, a, b) =>
      val (ca, costa) = analyze(a, env)
      val (cb, costb) = analyze(b, env)
      combine(op, ca, costa, cb, costb)
    case IfThen(c, t) =>
      val (_, costc) = analyze(c, env)
      val (ct, costt) = analyze(t, env)
      val sel = selectivity(c)
      (ct.scaled(sel), costc + p.scalarOp + sel * costt)
    case Let(bound, body) =>
      val (cb, costb) = analyze(bound, env)
      val (cr, costr) = analyze(body, cb :: env)
      (cr, costb + p.materialize * cb.totalSize + costr)
    case Sum(coll, body) =>
      val (cc, costc) = analyze(coll, env)
      val n = math.max(1.0, cc.count)
      val gamma = if (cc.topDense) p.iterDense else p.iterHash
      val (cb, costb) = analyze(body, cc.value :: Card.scalar :: env)
      (sumCard(cb, n), costc + gamma * n * costb + denseAllocCost(cb))
    case Dict(k, v, unique, phys) =>
      val (_, costk) = analyze(k, env)
      val (cv, costv) = analyze(v, env)
      val (ins, dense) = phys match {
        case Phys.PDense => (p.insertDense, true)
        case Phys.PHash  => (p.insertHash, false)
        case Phys.PLog   => (p.insertLogical, false)
      }
      // A colliding insert of a nested value merges dictionaries, which
      // allocates and copies; scalar collisions are a cheap += in place.
      // @unique keys, and keys that are the enclosing loop's own key
      // variable, never collide.
      val loopKeyed = k == Vr(1)
      val factor =
        if (unique || loopKeyed) 1.0
        else if (cv.isScalar) 1.5
        else p.nestedMerge
      (cv.nested(1.0, dense), costk + costv + ins * factor)
    case Get(d, k) =>
      val (cd, costd) = analyze(d, env)
      val (_, costk) = analyze(k, env)
      val gamma = if (cd.topDense) p.lookupDense else p.lookupHash
      (cd.value, costd + costk + gamma)
    case Rng(lo, hi) =>
      val (_, cl) = analyze(lo, env)
      val (_, ch) = analyze(hi, env)
      (Card.vec(rangeCount(lo, hi), dense = true), cl + ch + p.scalarOp)
    case SubArr(a, lo, hi) =>
      val (ca, costa) = analyze(a, env)
      val (_, cl) = analyze(lo, env)
      val (_, ch) = analyze(hi, env)
      val n = rangeCount(lo, hi)
      (Card(1.0, Level(n, dense = true) :: ca.levels.drop(1)), costa + cl + ch + p.scalarOp)
    case Merge(l, r, body) =>
      val (cl, costl) = analyze(l, env)
      val (cr, costr) = analyze(r, env)
      val n1 = math.max(1.0, cl.count); val n2 = math.max(1.0, cr.count)
      val g1 = if (cl.topDense) p.iterDense else p.iterHash
      val g2 = if (cr.topDense) p.iterDense else p.iterHash
      val envB = Card.scalar :: Card.scalar :: Card.scalar :: env
      val (cb, costb) = analyze(body, envB)
      (cb.scaled(math.min(n1, n2)), costl + costr + (g1 * n1 + g2 * n2) * costb)
  }

  private def combine(op: String, ca: Card, costa: Double,
                      cb: Card, costb: Double): Res = op match {
    case "+" | "-" =>
      if (ca.isScalar && cb.isScalar) (Card.scalar, costa + costb + p.scalarOp)
      else {
        val c = unionCard(ca, cb)
        (c, costa + costb + p.dictOp * (ca.totalSize + cb.totalSize))
      }
    case "*" =>
      if (ca.isScalar && cb.isScalar) (Card.scalar, costa + costb + p.scalarOp)
      else {
        // semiring-module product: levels concatenate ({k->v}*e = {k->v*e})
        val c = Card(ca.weight * cb.weight, ca.levels ++ cb.levels)
        (c, costa + costb + p.dictOp * math.max(1.0, c.totalSize))
      }
    case _ => (Card.scalar, costa + costb + p.scalarOp)
  }

  private def unionCard(a: Card, b: Card): Card = {
    val levels = a.levels.zipAll(b.levels, Level(1, true), Level(1, true)).map {
      case (x, y) => Level(x.n + y.n, x.dense && y.dense)
    }
    Card(math.max(a.weight, b.weight), levels)
  }

  /** One-time dense-array allocation charge when a sum accumulates into
    * a freshly built `@dense` dictionary. */
  private def denseAllocCost(cb: Card): Double = cb.levels match {
    case Level(w, true) :: _ if w <= 1.0 => p.denseAlloc * stats.denseWidth
    case _ => 0.0
  }

  /** Cardinality of a summation of `n` copies of `cb` (Fig. 5: n·card).
    * A summation of dense singleton dicts builds a dense array whose
    * later iteration pays the full key-space width, so its top level is
    * floored at the estimated dimension width. */
  private def sumCard(cb: Card, n: Double): Card = cb.levels match {
    case Level(w, true) :: tail if w <= 1.0 =>
      Card(1.0, Level(math.max(n * cb.weight * w, stats.denseWidth), dense = true) :: tail)
    case _ => cb.scaled(n)
  }

  private def selectivity(c: Expr): Double = c match {
    case Bin("==", _, _) => stats.selEq
    case Bin("&&", a, b) => selectivity(a) * selectivity(b)
    case Num(v) => if (v != 0) 1.0 else 0.0
    case _ => stats.selOther
  }

  private def rangeCount(lo: Expr, hi: Expr): Double = (lo, hi) match {
    case (Num(a), Num(b)) => math.max(1.0, b - a)
    case _ => stats.defaultSegment
  }

  // ---- cost-based extraction from an e-graph ------------------------------

  /** Extract the cheapest term of `root` from the e-graph, using the
    * environment-aware analysis (our replacement for Egg's scalar-only
    * extraction, cf. Sec. 6.6 "Cost computation"). Returns the term and
    * its estimated cost. */
  def extract(eg: EGraph, root: Int): (Expr, Double) = {
    // Environments are quantized (2 significant digits, 6 levels deep)
    // for memoization, or distinct float cardinalities make every
    // (class, env) pair unique and the search goes exponential.
    def qd(x: Double): Double =
      if (x <= 0) 0.0
      else {
        val e = math.floor(math.log10(x)) - 1
        math.round(x / math.pow(10, e)) * math.pow(10, e)
      }
    def qc(c: Card): Card =
      Card(qd(c.weight), c.levels.map(l => Level(qd(l.n), l.dense)))
    // Quantize but never truncate: dropping entries makes contexts that
    // differ at deep variables collide in the memo and corrupts costs.
    def qenv(env: List[Card]): List[Card] = env.map(qc)

    // ---- pass 1: environment-free approximation ---------------------------
    // A per-class (cost, card) fixpoint with variables treated as scalars.
    // Used only to PRUNE each class to its most promising nodes before the
    // exact env-aware search — otherwise the (class, env) space explodes.
    val approx = mutable.HashMap.empty[Int, (Double, Card)]
    val approxLu: (Int, List[Card]) => Option[(Double, Card)] =
      (cls, _) => approx.get(eg.find(cls))
    val K = 3
    val pruned = mutable.HashMap.empty[Int, Vector[ENode]]
    val memo = mutable.HashMap.empty[(Int, List[Card]), Option[(Double, Card, ENode)]]
    val visiting = mutable.HashSet.empty[(Int, List[Card])]
    // Depth guard for pass 3: cycles whose environment grows on every
    // lap (e.g. a self-referential let introduced by a union) never
    // revisit the same (class, env) key, so bound recursion outright.
    val MaxDepth = 160
    var depth = 0
    val fvTable = mutable.HashMap.empty[Int, Set[Int]]
    lazy val bestLu: (Int, List[Card]) => Option[(Double, Card)] =
      (cls, env) => best(cls, env).map(r => (r._1, r._2))

    def runApproxPass(): Unit = {
      var changedA = true
      var guardA = 0
      while (changedA && guardA < 80) {
        changedA = false; guardA += 1
        eg.classes.foreach { case (cid0, nodes) =>
          val cid = eg.find(cid0)
          nodes.foreach { n0 =>
            val n = eg.canonicalize(n0)
            nodeCost(n, Nil, approxLu).foreach { case (c, card) =>
              if (approx.get(cid).forall(_._1 > c)) {
                approx(cid) = (c, card); changedA = true
              }
            }
          }
        }
      }
    }

    // ---- pass 2b: free variables per class (over pruned nodes) ------------
    // Memo keys in pass 3 are restricted to the env entries a class can
    // actually read; otherwise path-dependent env chains explode the
    // (class, env) space.
    def runFvPass(): Unit = {
      var changed = true
      var guard = 0
      while (changed && guard < 64) {
        changed = false; guard += 1
        pruned.foreach { case (cid, nodes) =>
          var s = fvTable.getOrElse(cid, Set.empty)
          nodes.foreach { n =>
            if (n.op.startsWith("var:")) s = s + n.op.drop(4).toInt
            else {
              val ars = EGraph.binderArities(n.op, n.children.length)
              n.children.zip(ars).foreach { case (c, ar) =>
                s = s ++ fvTable.getOrElse(eg.find(c), Set.empty)
                  .map(_ - ar).filter(_ >= 0)
              }
            }
          }
          if (s != fvTable.getOrElse(cid, Set.empty)) {
            fvTable(cid) = s; changed = true
          }
        }
      }
    }

    def memoKey(cls: Int, env: List[Card]): (Int, List[Card]) = {
      val fv = fvTable.getOrElse(cls, Set.empty)
      val picked = fv.toList.sorted.map(i =>
        if (i < env.length) qc(env(i)) else Card.scalar)
      (cls, picked)
    }

    // ---- pass 2: prune each class to its K cheapest nodes -----------------
    def runPrunePass(): Unit =
      eg.classes.foreach { case (cid0, nodes) =>
        val cid = eg.find(cid0)
        val ranked = nodes.iterator.map(eg.canonicalize).toVector.distinct
          .flatMap(n => nodeCost(n, Nil, approxLu).map(r => (r._1, n)))
          .sortBy(_._1).take(K).map(_._2)
        pruned(cid) = ranked
      }

    // ---- pass 3: exact env-aware search over the pruned graph -------------
    def best(cls0: Int, env: List[Card]): Option[(Double, Card, ENode)] = {
      val cls = eg.find(cls0)
      val key = memoKey(cls, env)
      memo.get(key) match {
        case Some(r) => r
        case None =>
          if (depth >= MaxDepth) return None
          if (!visiting.add(key)) return None // cycle
          depth += 1
          // The first cheapest candidate, as `minBy` would pick it. The loop
          // keeps `best` too large for the JIT to inline into each closure
          // of `nodeCost` that reaches it through `lu`; inlined, it made
          // those compiles slow enough to hold up the code that runs next.
          var r: Option[(Double, Card, ENode)] = None
          val ns = pruned.getOrElse(cls, Vector.empty)
          var i = 0
          while (i < ns.length) {
            nodeCost(ns(i), env, bestLu) match {
              case Some((cost, card)) =>
                if (r.isEmpty || java.lang.Double.compare(cost, r.get._1) < 0)
                  r = Some((cost, card, ns(i)))
              case None =>
            }
            i += 1
          }
          depth -= 1
          visiting.remove(key)
          // results computed under the depth cap may be partial — only
          // memoize when computed from the top region of the search
          if (depth < MaxDepth / 2) memo(key) = r
          r
      }
    }

    def nodeCost(n: ENode, env: List[Card],
                 lu: (Int, List[Card]) => Option[(Double, Card)]): Option[(Double, Card)] = {
      val op = n.op
      if (op.startsWith("num:")) Some((0.0, Card.scalar))
      else if (op.startsWith("var:")) {
        val i = op.drop(4).toInt
        Some((0.0, if (i < env.length) env(i) else Card.scalar))
      }
      else if (op.startsWith("sym:")) Some((0.0, stats.card(op.drop(4))))
      else if (op.startsWith("bin:")) {
        for {
          (costa, ca) <- child(n, 0, env, lu)
          (costb, cb) <- child(n, 1, env, lu)
        } yield { val (c, cost) = combine(op.drop(4), ca, costa, cb, costb); (cost, c) }
      }
      else if (op.startsWith("dict:")) {
        val flags = op.drop(5)
        for {
          (costk, _) <- child(n, 0, env, lu)
          (costv, cv) <- child(n, 1, env, lu)
        } yield {
          val (ins, dense) = flags(1) match {
            case 'd' => (p.insertDense, true)
            case 'h' => (p.insertHash, false)
            case _   => (p.insertLogical, false)
          }
          // colliding nested-value inserts merge dictionaries; @unique
          // and loop-keyed ({k -> ...} with k the enclosing sum's key
          // variable) inserts never collide
          val loopKeyed = eg.classes
            .getOrElse(eg.find(n.children(0)), mutable.ArrayBuffer.empty)
            .exists(_.op == "var:1")
          val factor =
            if (flags(0) == 'u' || loopKeyed) 1.0
            else if (cv.isScalar) 1.5
            else p.nestedMerge
          (costk + costv + ins * factor, cv.nested(1.0, dense))
        }
      }
      else op match {
        case "if" =>
          for {
            (costc, _) <- child(n, 0, env, lu)
            (costt, ct) <- child(n, 1, env, lu)
          } yield {
            val sel = selectivityOfClass(n.children(0))
            (costc + p.scalarOp + sel * costt, ct.scaled(sel))
          }
        case "let" =>
          for {
            (costb, cb) <- child(n, 0, env, lu)
            (costr, cr) <- lu(n.children(1), cb :: env)
          } yield (costb + p.materialize * cb.totalSize + costr, cr)
        case "sum" =>
          for {
            (costc, cc) <- child(n, 0, env, lu)
            bodyEnv = cc.value :: Card.scalar :: env
            (costb, cb) <- lu(n.children(1), bodyEnv)
          } yield {
            val nIter = math.max(1.0, cc.count)
            val gamma = if (cc.topDense) p.iterDense else p.iterHash
            (costc + gamma * nIter * costb + denseAllocCost(cb), sumCard(cb, nIter))
          }
        case "get" =>
          for {
            (costd, cd) <- child(n, 0, env, lu)
            (costk, _) <- child(n, 1, env, lu)
          } yield {
            val gamma = if (cd.topDense) p.lookupDense else p.lookupHash
            (costd + costk + gamma, cd.value)
          }
        case "rng" =>
          for {
            (cl, _) <- child(n, 0, env, lu)
            (ch, _) <- child(n, 1, env, lu)
          } yield {
            val nR = classLiteral(n.children(0)).flatMap(a =>
              classLiteral(n.children(1)).map(b => math.max(1.0, b - a)))
              .getOrElse(stats.defaultSegment)
            (cl + ch + p.scalarOp, Card.vec(nR, dense = true))
          }
        case "sub" =>
          for {
            (costa, ca) <- child(n, 0, env, lu)
            (cl, _) <- child(n, 1, env, lu)
            (ch, _) <- child(n, 2, env, lu)
          } yield {
            val nS = classLiteral(n.children(1)).flatMap(a =>
              classLiteral(n.children(2)).map(b => math.max(1.0, b - a)))
              .getOrElse(stats.defaultSegment)
            (costa + cl + ch + p.scalarOp,
             Card(1.0, Level(nS, dense = true) :: ca.levels.drop(1)))
          }
        case "merge" =>
          for {
            (costl, cl) <- child(n, 0, env, lu)
            (costr, cr) <- child(n, 1, env, lu)
            envB = Card.scalar :: Card.scalar :: Card.scalar :: env
            (costb, cb) <- lu(n.children(2), envB)
          } yield {
            val n1 = math.max(1.0, cl.count); val n2 = math.max(1.0, cr.count)
            val g1 = if (cl.topDense) p.iterDense else p.iterHash
            val g2 = if (cr.topDense) p.iterDense else p.iterHash
            (costl + costr + (g1 * n1 + g2 * n2) * costb,
             cb.scaled(math.min(n1, n2)))
          }
        case other => throw new IllegalArgumentException(s"unknown op $other")
      }
    }

    def child(n: ENode, i: Int, env: List[Card],
              lu: (Int, List[Card]) => Option[(Double, Card)]): Option[(Double, Card)] =
      lu(n.children(i), env)

    // crude per-class condition selectivity: == nodes get selEq
    def selectivityOfClass(cls: Int): Double = {
      val ns = eg.classes.getOrElse(eg.find(cls), mutable.ArrayBuffer.empty)
      if (ns.exists(_.op == "bin:==")) stats.selEq
      else if (ns.exists(n => n.op == "bin:&&" || n.op.startsWith("bin:<") ||
        n.op.startsWith("bin:>"))) stats.selOther
      else stats.selOther
    }

    def classLiteral(cls: Int): Option[Double] =
      eg.classes.getOrElse(eg.find(cls), mutable.ArrayBuffer.empty)
        .collectFirst { case n if n.op.startsWith("num:") => n.op.drop(4).toDouble }

    // reconstruct the chosen term top-down, threading environments
    def build(cls0: Int, env: List[Card]): Expr = {
      val cls = eg.find(cls0)
      val (_, _, n) = best(cls, env).getOrElse(
        throw new IllegalStateException(s"no finite-cost term for class $cls"))
      val op = n.op
      if (op.startsWith("num:") || op.startsWith("var:") || op.startsWith("sym:"))
        EGraph.compose(op, Vector.empty)
      else op match {
        case "let" =>
          val bound = build(n.children(0), env)
          val (cb, _) = analyze(bound, env)
          Let(bound, build(n.children(1), cb :: env))
        case "sum" =>
          val coll = build(n.children(0), env)
          val (cc, _) = analyze(coll, env)
          Sum(coll, build(n.children(1), cc.value :: Card.scalar :: env))
        case "merge" =>
          val envB = Card.scalar :: Card.scalar :: Card.scalar :: env
          Merge(build(n.children(0), env), build(n.children(1), env),
            build(n.children(2), envB))
        case _ =>
          EGraph.compose(op, n.children.map(c => build(c, env)))
      }
    }

    runApproxPass()
    runPrunePass()
    runFvPass()
    best(root, Nil) match {
      case Some(r) =>
        try (build(root, Nil), r._1)
        catch {
          case _: IllegalStateException =>
            val e = Extract.smallest(eg, root)
            (e, analyze(e)._2)
        }
      case None =>
        // pruning or cycles starved the search — fall back to the
        // structural representative, costed by direct analysis
        val e = Extract.smallest(eg, root)
        (e, analyze(e)._2)
    }
  }
}
