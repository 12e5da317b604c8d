package repro.core

import Comprehension._

/** How a comprehension runs (§3.8, §4), decided once for both backends.
  *
  * The qualifiers become steps, split at the group-by: generators become
  * scans, a group-by becomes a group-by-aggregate over the reductions
  * extracted from the head. Each generator carries the later conditions
  * (up to the group-by) whose variables are all bound once it has run and
  * that mention at least one of its own: a backend filters or joins with
  * them at the generator. The other conditions stay where they are.
  */
final case class Plan(pre: List[Plan.Step], group: Option[Plan.Group],
                      post: List[Plan.Step], head: List[CExpr])

object Plan {

  sealed trait Step
  sealed trait Generator extends Step {
    def vars: List[String]
    /** The conditions this generator carries, in source order. */
    def conds: List[CExpr]
  }
  /** v ← range(lo, hi). */
  final case class RangeGen(v: String, lo: CExpr, hi: CExpr, conds: List[CExpr])
      extends Generator { def vars = List(v) }
  /** (idx_1, ..., idx_n, value) ← arr. `keys` are the carried conditions
    * `idx_i == e` whose `e` is bound before the scan, at most one per index
    * position, by ascending position; `filters` are the other carried
    * conditions.
    */
  final case class Scan(idxVars: List[String], valVar: String, arr: String,
                        conds: List[CExpr], keys: List[(Int, CExpr)],
                        filters: List[CExpr]) extends Generator {
    def vars = idxVars :+ valVar
    val keyPos: List[Int] = keys.map(_._1)
    val keyExprs: List[CExpr] = keys.map(_._2)
  }
  final case class Let(v: String, e: CExpr) extends Step
  final case class Cond(e: CExpr) extends Step
  final case class Lookup(v: String, arr: String, keyVars: List[String],
                          default: Default) extends Step

  /** group by (kvars) : (keys), computing the (var, monoid, argument)
    * reductions.
    */
  final case class Group(kvars: List[String], keys: List[CExpr],
                         reduces: List[(String, Monoid, CExpr)])

  /** The plan of `c`, whose head columns are flattened by `headColumns`. */
  def plan(c: Comp): Plan = splitAtGroup(c.quals) match {
    case None => Plan(steps(c.quals, Set.empty), None, Nil, headColumns(c.head))
    case Some((pre, QGroup(kvars, keys), post)) =>
      def hasReduce(e: CExpr): Boolean =
        e.isInstanceOf[CReduce] || children(e).exists(hasReduce)
      require(post.forall {
        case QPred(e)   => !hasReduce(e)
        case QLet(_, e) => !hasReduce(e)
        case _          => true
      }, "reductions in post-group qualifiers are not generated")
      var n = 0
      val (head, reds) = extractReduces(c.head, () => { n += 1; s"_r$n" })
      Plan(steps(pre, Set.empty), Some(Group(kvars, keys, reds)),
        steps(post, (kvars ++ reds.map(_._1)).toSet), headColumns(head))
  }

  /** Steps of a group-free qualifier list evaluated with `bound0` bound. */
  private def steps(quals: List[Qual], bound0: Set[String]): List[Step] = {
    val qs = quals.toVector
    val carried = scala.collection.mutable.Set.empty[Int]
    var bound = bound0
    val out = List.newBuilder[Step]
    for ((q, i) <- qs.zipWithIndex if !carried(i)) {
      def carry(vs: List[String]): List[CExpr] = {
        val after = bound ++ vs
        (i + 1 until qs.length).toList.flatMap { j => qs(j) match {
          case QPred(e) if !carried(j) && freeVars(e).subsetOf(after) &&
              vs.exists(freeVars(e)) =>
            carried += j; Some(e)
          case _ => None
        }}
      }
      q match {
        case Gen(PVar(v), CRange(lo, hi)) => out += RangeGen(v, lo, hi, carry(List(v)))
        case Gen(p: PTup, CArr(a)) =>
          val (idxVars, valVar) = (p.vars.init, p.vars.last)
          val conds = carry(p.vars)
          val keys = scala.collection.mutable.SortedMap.empty[Int, CExpr]
          def isKey(x: CExpr, e: CExpr): Boolean = x match {
            case CVar(n) if idxVars.contains(n) && freeVars(e).subsetOf(bound) &&
                !keys.contains(idxVars.indexOf(n)) =>
              keys(idxVars.indexOf(n)) = e; true
            case _ => false
          }
          val filters = conds.filterNot {
            case CBin("==", l, r) => isKey(l, r) || isKey(r, l)
            case _                => false
          }
          out += Scan(idxVars, valVar, a, conds, keys.toList, filters)
        case g: Gen =>
          throw new IllegalArgumentException(s"bad generator ${show(g)}")
        case QLet(PVar(v), e) => out += Let(v, e)
        case QLet(p, _) =>
          throw new IllegalArgumentException(s"unsupported let pattern ${show(p)}")
        case QPred(e)             => out += Cond(e)
        case QLookup(v, a, ks, d) => out += Lookup(v, a, ks, d)
        case g: QGroup =>
          throw new IllegalArgumentException(s"unexpected ${show(g)}")
      }
      bound ++= boundVars(q)
    }
    out.result()
  }
}
