package repro.core

import Comprehension._
import Translate._

/** Comprehension optimizations (paper §3.6 and §4):
  *
  *  - *Range elimination* (§3.6): a join between `i ← range(lo,hi)` and an
  *    array traversal with condition `I = i` becomes a traversal with an
  *    `inRange` filter, avoiding the join against the index range.
  *  - *Rule 16*: a group-by with a constant key forms one group; it is
  *    replaced by a global aggregation (empty-key group-by) plus
  *    let-bindings for the key variables.
  *  - *Rule 17*: a group-by whose key is unique (covers the index variables
  *    of all generators, so every group is a singleton) is removed; each
  *    reduction ⊕/e degenerates to e.
  */
object Optimize {

  def optimize(ts: List[TStmt]): List[TStmt] = ts.map {
    case TAssign(n, c, a) => TAssign(n, optimizeComp(c), a)
    case TWhileS(c, b)    => TWhileS(optimizeComp(c), optimize(b))
    case other            => other
  }

  def optimizeComp(c: Comp): Comp =
    uniqueKeyGroup(constantKeyGroup(eliminateRanges(c)))

  // ------------------------------------------------- §3.6 range elimination

  /** Find `i ← range(lo,hi)` plus a later array generator with a predicate
    * `I == i` (I an index variable of that generator); drop the range and the
    * predicate, bind `i` from the traversal, and filter with inRange.
    * Applied to a fixpoint so nested loops eliminate all their ranges.
    */
  private def eliminateRanges(c: Comp): Comp = {
    // one elimination step: (rangeIdx, predIdx, genIdx, loopVar, lo, hi, indexVar)
    def step(quals: List[Qual]): Option[List[Qual]] = {
      val cand = (for {
        (Gen(List(i), CRange(lo, hi)), ri) <- quals.zipWithIndex.iterator
        if freeVars(lo).isEmpty && freeVars(hi).isEmpty
        (Gen(vs, CArr(_)), gi) <- quals.zipWithIndex.iterator
        idxVars = vs.dropRight(1).toSet
        (QPred(CBin("==", CVar(a), CVar(b))), pi) <- quals.zipWithIndex.iterator
        iv <- if (idxVars(a) && b == i) Some(a)
              else if (idxVars(b) && a == i) Some(b)
              else None
      } yield (ri, pi, gi, i, lo, hi, iv)).nextOption()
      cand.map { case (ri, pi, gi, i, lo, hi, iv) =>
        val without = quals.indices.filter(ix => ix != ri && ix != pi).map(quals)
        val genPos  = gi - (if (ri < gi) 1 else 0) - (if (pi < gi) 1 else 0)
        val inserted = List[Qual](
          QLet(i, CVar(iv)),
          QPred(CBin("<=", lo, CVar(i))),
          QPred(CBin("<=", CVar(i), hi)))
        (without.take(genPos + 1) ++ inserted ++ without.drop(genPos + 1)).toList
      }
    }
    var quals = c.quals
    var next  = step(quals)
    while (next.isDefined) { quals = next.get; next = step(quals) }
    Comp(c.head, quals)
  }

  // ------------------------------------------------------------- rule 16

  /** Group-by with a constant key (no free variables): a single group.
    * Becomes a unit group-by plus let-bindings for the key variables.
    */
  private def constantKeyGroup(c: Comp): Comp =
    splitAtGroup(c.quals) match {
      case Some((pre, QGroup(kvars, keys), post))
          if kvars.nonEmpty && keys.forall(k => freeVars(k).isEmpty) =>
        val lets = kvars.zip(keys).map { case (v, k) => QLet(v, k) }
        Comp(c.head, pre ::: (QGroup(Nil, Nil) :: lets) ::: post)
      case _ => c
    }

  // ------------------------------------------------------------- rule 17

  /** Group-by over a unique key: every generator's index variables are
    * (transitively, via equality predicates and let-bindings) determined by
    * the key variables, so each group is a singleton. The group-by is
    * removed and every reduction ⊕/e degenerates to e.
    */
  private def uniqueKeyGroup(c: Comp): Comp =
    splitAtGroup(c.quals) match {
      case Some((pre, QGroup(kvars, keys), post)) if kvars.nonEmpty =>
        // equivalence classes of variables linked by `a == b` and `let a = b`
        val uf = new UnionFind
        pre.foreach {
          case QPred(CBin("==", CVar(a), CVar(b))) => uf.union(a, b)
          case QLet(a, CVar(b))                    => uf.union(a, b)
          case _                                   => ()
        }
        val keyVars: Set[String] =
          keys.collect { case CVar(v) => uf.find(v) }.toSet
        val allKeysAreVars = keys.forall(_.isInstanceOf[CVar])
        def determined(v: String) = keyVars.contains(uf.find(v))
        val unique = allKeysAreVars && pre.forall {
          case Gen(List(v), CRange(_, _)) => determined(v)
          case Gen(vs, CArr(_))           => vs.dropRight(1).forall(determined)
          case _                          => true
        }
        if (!unique) c
        else {
          val lets = kvars.zip(keys).map { case (v, k) => QLet(v, k) }
          val post2 = post.map {
            case QLet(p, e) => QLet(p, dropReduce(e))
            case QPred(e)   => QPred(dropReduce(e))
            case other      => other
          }
          Comp(dropReduce(c.head), pre ::: lets ::: post2)
        }
      case _ => c
    }

  /** Every reduction ⊕/e over a singleton group degenerates to e. */
  private def dropReduce(e: CExpr): CExpr = e match {
    case CReduce(_, b) => b
    case _             => mapChildren(e)(dropReduce)
  }

  private final class UnionFind {
    private val parent = scala.collection.mutable.Map.empty[String, String]
    def find(x: String): String = {
      val p = parent.getOrElse(x, x)
      if (p == x) x else { val r = find(p); parent(x) = r; r }
    }
    def union(a: String, b: String): Unit = {
      val (ra, rb) = (find(a), find(b))
      if (ra != rb) parent(ra) = rb
    }
  }
}
