package repro.egraph

import scala.collection.mutable

/** Pattern language for e-matching. Metavariables ([[PVar]]) bind
  * e-classes; [[POpVar]] additionally captures the matched op string
  * (used by rules that apply to any dictionary flag combination). */
sealed trait Pat { def children: Vector[Pat] = Vector.empty }
final case class PVar(name: String) extends Pat
final case class PNode(op: String, override val children: Vector[Pat]) extends Pat
final case class POpVar(opVar: String, pred: String => Boolean,
                        override val children: Vector[Pat]) extends Pat

object Pat {
  def pv(n: String): Pat = PVar(n)
  def node(op: String, cs: Pat*): Pat = PNode(op, cs.toVector)
}

/** A match: metavariable -> e-class id (canonical at match time), plus
  * captured op strings, in arrays laid out by a [[Matcher.Program]]. */
final class Subst(names: Array[String], ids: Array[Int],
                  opNames: Array[String], opVals: Array[String]) {
  def apply(n: String): Int = ids(names.indexOf(n))
  def op(n: String): String = opVals(opNames.indexOf(n))
  def cls: Map[String, Int] = names.zip(ids).toMap
  def ops: Map[String, String] = opNames.zip(opVals).toMap
}

object Matcher {

  /** All substitutions under which `pat` matches e-class `cls`. */
  def matches(eg: EGraph, pat: Pat, cls: Int): Seq[Subst] = {
    val out = mutable.ArrayBuffer.empty[Subst]
    new Program(pat).foreach(eg, cls)(out += _)
    out.toSeq
  }

  /** A pattern flattened to preorder positions, matched by backtracking
    * with bindings in place; `reg(i)` is the class position `i` must match,
    * set by its parent. Matches come out in top-down, left-to-right order.
    * Not reentrant: `f` must not match with the same program. */
  final class Program(pat: Pat) {
    private val pats = mutable.ArrayBuffer.empty[Pat]
    private val kids = mutable.ArrayBuffer.empty[Array[Int]]
    private def flatten(p: Pat): Int = {
      val i = pats.length
      pats += p; kids += null
      kids(i) = p.children.map(flatten).toArray
      i
    }
    flatten(pat)
    private val names = pats.collect { case PVar(n) => n }.distinct.toArray
    private val opNames = pats.collect { case POpVar(v, _, _) => v }.distinct.toArray
    private val slot = pats.map {
      case PVar(n) => names.indexOf(n)
      case POpVar(v, _, _) => opNames.indexOf(v)
      case PNode(_, _) => -1
    }.toArray
    private val reg = new Array[Int](pats.length)
    private val ids = Array.fill(names.length)(-1)
    private val opVals = new Array[String](opNames.length)

    /** Calls `f` on every match of the pattern at `cls`, in order. */
    def foreach(eg: EGraph, cls: Int)(f: Subst => Unit): Unit = {
      reg(0) = cls
      step(eg, 0, f)
    }

    private def step(eg: EGraph, i: Int, f: Subst => Unit): Unit =
      if (i == pats.length) f(new Subst(names, ids.clone(), opNames, opVals.clone()))
      else pats(i) match {
        case PVar(_) =>
          val c = eg.find(reg(i)); val s = slot(i)
          if (ids(s) < 0) { ids(s) = c; step(eg, i + 1, f); ids(s) = -1 }
          else if (eg.find(ids(s)) == c) step(eg, i + 1, f)
        case PNode(op, _) => eachNode(eg, i, f)(_.op == op)
        case POpVar(_, pred, _) =>
          val s = slot(i); val bound = opVals(s) != null
          eachNode(eg, i, f) { n =>
            pred(n.op) && {
              if (!bound) opVals(s) = n.op
              opVals(s) == n.op
            }
          }
          if (!bound) opVals(s) = null
      }

    /** Continues after position `i` once per node of its class that passes
      * `ok` and has the pattern's arity, with the children in place. */
    private def eachNode(eg: EGraph, i: Int, f: Subst => Unit)(ok: ENode => Boolean): Unit = {
      val ns = eg.classes(eg.find(reg(i)))
      val ks = kids(i)
      var j = 0
      while (j < ns.length) {
        val n = ns(j)
        if (ok(n) && n.children.length == ks.length) {
          var k = 0
          while (k < ks.length) { reg(ks(k)) = n.children(k); k += 1 }
          step(eg, i + 1, f)
        }
        j += 1
      }
    }
  }
}
