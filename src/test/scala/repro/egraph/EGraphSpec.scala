package repro.egraph

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.kernels.Kernels
import repro.storage.{CooMat, Formats}
import scala.collection.mutable

class EGraphSpec extends AnyFunSuite {

  test("hash-consing deduplicates identical nodes") {
    val eg = new EGraph
    val a = eg.addExpr(Bin("*", Sym("a"), Sym("b")))
    val b = eg.addExpr(Bin("*", Sym("a"), Sym("b")))
    assert(eg.find(a) == eg.find(b))
  }

  test("distinct expressions get distinct classes") {
    val eg = new EGraph
    val a = eg.addExpr(Sym("a"))
    val b = eg.addExpr(Sym("b"))
    assert(eg.find(a) != eg.find(b))
  }

  test("union merges classes") {
    val eg = new EGraph
    val a = eg.addExpr(Sym("a"))
    val b = eg.addExpr(Sym("b"))
    eg.union(a, b)
    assert(eg.find(a) == eg.find(b))
  }

  test("congruence: f(a) = f(b) after a = b") {
    val eg = new EGraph
    val fa = eg.addExpr(Get(Sym("f"), Sym("a")))
    val fb = eg.addExpr(Get(Sym("f"), Sym("b")))
    assert(eg.find(fa) != eg.find(fb))
    eg.union(eg.addExpr(Sym("a")), eg.addExpr(Sym("b")))
    eg.rebuild()
    assert(eg.find(fa) == eg.find(fb))
  }

  test("congruence propagates transitively") {
    val eg = new EGraph
    val gfa = eg.addExpr(Get(Sym("g"), Get(Sym("f"), Sym("a"))))
    val gfb = eg.addExpr(Get(Sym("g"), Get(Sym("f"), Sym("b"))))
    eg.union(eg.addExpr(Sym("a")), eg.addExpr(Sym("b")))
    eg.rebuild()
    assert(eg.find(gfa) == eg.find(gfb))
  }

  test("node and class counts track structure") {
    val eg = new EGraph
    eg.addExpr(Bin("+", Sym("a"), Sym("b")))
    assert(eg.nodeCount == 3)
    assert(eg.classCount == 3)
    assert(eg.memoCount == 3)
  }

  test("decompose/compose round-trips every construct") {
    val exprs = Seq[Expr](
      Num(3.5), Vr(2), Sym("x"), Bin("*", Num(1), Num(2)),
      IfThen(Num(1), Num(2)), Let(Num(1), Vr(0)), Sum(Sym("A"), Vr(0)),
      Dict(Num(1), Num(2), unique = true, Phys.PDense),
      Dict(Num(1), Num(2), unique = false, Phys.PHash),
      Get(Sym("A"), Num(1)), Rng(Num(0), Num(5)),
      SubArr(Sym("A"), Num(0), Num(2)), Merge(Sym("A"), Sym("B"), Vr(0)))
    exprs.foreach { e =>
      val (op, cs) = EGraph.decompose(e)
      assert(EGraph.compose(op, cs) == e, s"round-trip failed for $e")
    }
  }

  test("addExpr then extract smallest returns an equivalent term") {
    val eg = new EGraph
    val e = Sum(Sym("A"), Dict(Vr(1), Bin("*", Vr(0), Num(2))))
    val root = eg.addExpr(e)
    assert(Extract.smallest(eg, root) == e)
  }

  test("extraction prefers the smaller representative after union") {
    val eg = new EGraph
    val big = eg.addExpr(Bin("+", Bin("*", Sym("a"), Num(1)), Num(0)))
    val small = eg.addExpr(Sym("a"))
    eg.union(big, small)
    eg.rebuild()
    assert(Extract.smallest(eg, big) == Sym("a"))
  }

  test("pattern matching binds metavariables") {
    val eg = new EGraph
    val root = eg.addExpr(Bin("*", Sym("a"), Sym("b")))
    val ms = Matcher.matches(eg, PNode("bin:*", Vector(PVar("x"), PVar("y"))), root)
    assert(ms.size == 1)
    assert(Extract.smallest(eg, ms.head("x")) == Sym("a"))
    assert(Extract.smallest(eg, ms.head("y")) == Sym("b"))
  }

  test("pattern with repeated metavariable requires equality") {
    val eg = new EGraph
    val ab = eg.addExpr(Bin("*", Sym("a"), Sym("b")))
    assert(Matcher.matches(eg, PNode("bin:*", Vector(PVar("x"), PVar("x"))), ab).isEmpty)
    val aa = eg.addExpr(Bin("*", Sym("a"), Sym("a")))
    assert(Matcher.matches(eg, PNode("bin:*", Vector(PVar("x"), PVar("x"))), aa).size == 1)
  }

  test("POpVar captures the op") {
    val eg = new EGraph
    val root = eg.addExpr(Dict(Num(1), Num(2), unique = true, Phys.PLog))
    val ms = Matcher.matches(eg,
      POpVar("d", _.startsWith("dict:"), Vector(PVar("k"), PVar("v"))), root)
    assert(ms.size == 1)
    assert(ms.head.op("d") == "dict:ul")
  }

  test("matches across merged classes") {
    val eg = new EGraph
    val root = eg.addExpr(Bin("+", Sym("x"), Num(0)))
    // unify x with a product; the + node should now match a (a*b)+0 pattern
    val prod = eg.addExpr(Bin("*", Sym("a"), Sym("b")))
    eg.union(eg.addExpr(Sym("x")), prod)
    eg.rebuild()
    val pat = PNode("bin:+", Vector(PNode("bin:*", Vector(PVar("p"), PVar("q"))), PVar("z")))
    assert(Matcher.matches(eg, pat, root).nonEmpty)
  }

  test("saturation applies a simple rule and stops") {
    val eg = new EGraph
    val root = eg.addExpr(Bin("+", Sym("a"), Num(0)))
    val rule = Rule.simple("L1", PNode("bin:+", Vector(PVar("a"), PNode("num:0.0", Vector.empty))), RVar("a"))
    val stats = Saturate.run(eg, Seq(rule), SatConfig(maxIters = 10))
    assert(stats.saturated)
    assert(Extract.smallest(eg, root) == Sym("a"))
  }

  test("saturation respects the node limit") {
    val eg = new EGraph
    // AC closure over an 8-term chain wants hundreds of classes
    val chain = (1 to 8).map(i => Sym(s"a$i"): Expr).reduceLeft(Bin("+", _, _))
    val root = eg.addExpr(chain)
    val comm = Rule.simple("C1", PNode("bin:+", Vector(PVar("x"), PVar("y"))),
      RNode("bin:+", RVar("y"), RVar("x")))
    val assoc = Rule.simple("AAdd",
      PNode("bin:+", Vector(PNode("bin:+", Vector(PVar("x"), PVar("y"))), PVar("z"))),
      RNode("bin:+", RVar("x"), RNode("bin:+", RVar("y"), RVar("z"))))
    val stats = Saturate.run(eg, Seq(comm, assoc), SatConfig(maxIters = 50, maxNodes = 60))
    assert(!stats.saturated)
    assert(eg.find(root) >= 0)
  }

  test("RunStats aggregate with +") {
    val a = RunStats(10, 2, 100, 50, 120, saturated = true)
    val b = RunStats(5, 3, 80, 60, 90, saturated = false, timedOut = true)
    val c = a + b
    assert(c.timeMs == 15 && c.iters == 5 && c.nodes == 100 && c.classes == 60)
    assert(c.memos == 210 && !c.saturated && c.timedOut && !a.timedOut)
  }

  test("saturation reports a wall-clock abort, and only that") {
    val chain = (1 to 8).map(i => Sym(s"a$i"): Expr).reduceLeft(Bin("+", _, _))
    val comm = Rule.simple("C1", PNode("bin:+", Vector(PVar("x"), PVar("y"))),
      RNode("bin:+", RVar("y"), RVar("x")))
    def run(cfg: SatConfig) = { val eg = new EGraph; eg.addExpr(chain); Saturate.run(eg, Seq(comm), cfg) }
    assert(run(SatConfig(maxIters = 50, timeoutMs = 0)).timedOut)
    assert(!run(SatConfig(maxIters = 50, maxNodes = 20, timeoutMs = 0)).timedOut)
    assert(!run(SatConfig(maxIters = 50)).timedOut)
  }

  test("nodeCount stays the sum of class sizes through add, union and rebuild") {
    val rnd = new scala.util.Random(3)
    val eg = new EGraph
    val ids = mutable.ArrayBuffer.from((0 until 5).map(i => eg.addExpr(Sym(s"s$i"))))
    def pick() = ids(rnd.nextInt(ids.size))
    var deduped = false
    (1 to 600).foreach { step =>
      val before = eg.nodeCount
      rnd.nextInt(5) match {
        case 0 | 1 => ids += eg.add(ENode(Seq("get", "bin:*")(rnd.nextInt(2)), Vector(pick(), pick())))
        case 2 => ids += eg.add(ENode("sum", Vector(pick(), pick())))
        case 3 => eg.union(pick(), pick())
        case 4 => eg.rebuild(); deduped ||= eg.nodeCount < before
      }
      assert(eg.nodeCount == eg.classes.valuesIterator.map(_.size).sum, s"after step $step")
    }
    assert(deduped, "no congruence merge deduplicated nodes")
  }

  /** The top-down matcher the compiled one replaced: the reference that
    * root-indexed matching must agree with, match for match. */
  private def referenceMatches(eg: EGraph, pat: Pat, cls: Int)
      : Seq[(Map[String, Int], Map[String, String])] = {
    type S = (Map[String, Int], Map[String, String])
    def nodes(c: Int) = eg.classes(eg.find(c)).toSeq
    def go(p: Pat, c: Int, s: S): Seq[S] = p match {
      case PVar(n) => s._1.get(n) match {
        case Some(b) => if (eg.find(b) == eg.find(c)) Seq(s) else Seq.empty
        case None => Seq((s._1.updated(n, eg.find(c)), s._2))
      }
      case PNode(op, cs) => nodes(c).filter(_.op == op).flatMap(n => kids(cs, n.children, s))
      case POpVar(v, pred, cs) => nodes(c).filter(n => pred(n.op)).flatMap { n =>
        s._2.get(v) match {
          case Some(prev) => if (prev == n.op) kids(cs, n.children, s) else Seq.empty
          case None => kids(cs, n.children, (s._1, s._2.updated(v, n.op)))
        }
      }
    }
    def kids(ps: Vector[Pat], ks: Vector[Int], s: S): Seq[S] =
      if (ps.length != ks.length) Seq.empty
      else ps.zip(ks).foldLeft(Seq(s)) { case (acc, (p, k)) => acc.flatMap(go(p, k, _)) }
    go(pat, cls, (Map.empty, Map.empty))
  }

  test("root-indexed matching yields a full scan's matches in the same order") {
    val eg = new EGraph
    eg.addExpr(Optimizer.compose(Kernels.batax, Seq(
      Formats.csr("A", CooMat.random(20, 20, 70, seed = 1)),
      Formats.denseVec("X", Array.tabulate(20)(i => 0.5 + i * 0.1)))))
    Saturate.run(eg, Rules.physicalStage, SatConfig(maxIters = 6, maxNodes = 3000))
    val ids = eg.classIds
    val roots = new Saturate.Roots(eg, ids)
    var total = 0
    Rules.physicalStage.foreach { rule =>
      val program = new Matcher.Program(rule.lhs)
      val indexed = mutable.ArrayBuffer.empty[(Int, Map[String, Int], Map[String, String])]
      roots(rule.lhs).foreach(c => program.foreach(eg, c)(s => indexed += ((c, s.cls, s.ops))))
      val scan = ids.flatMap(c => referenceMatches(eg, rule.lhs, c).map { case (m, o) => (c, m, o) })
      assert(indexed == scan, s"rule ${rule.name}")
      total += scan.size
    }
    assert(total > 1000, s"only $total matches: the graph is too small to test")
  }
}
