package repro.core

import Comprehension._

/** How a comprehension runs (§3.8, §4), decided once for both backends.
  *
  * The qualifiers become steps, split at the group-by: generators become
  * scans, a group-by becomes a group-by-aggregate over the reductions
  * extracted from the head. The steps before the group-by and those after
  * it are placed separately, each by one rule: the next step is the first
  * remaining qualifier that is a generator or whose variables are all
  * bound, so a condition or let waits until they are; a qualifier whose
  * variables never become bound is an error. Each generator carries the
  * remaining conditions whose variables are all bound once it has run and
  * that mention at least one of its own: a backend filters or joins with
  * them at the generator. A scan that re-reads an element an earlier scan
  * of the same step list bound reads that scan's element instead (see
  * `reuse`).
  *
  * `old` is the lookup 𝒟⟦A⟧(k) of rule (15a): the old value of the array
  * the `◁` merges into, at the head's key, bound after every step. It is
  * part of that merge, so a backend reads it from the merge; the translator
  * generates no other lookup.
  */
final case class Plan(pre: List[Plan.Step], group: Option[Plan.Group],
                      post: List[Plan.Step], old: Option[Plan.Lookup],
                      head: List[CExpr]) {
  import Plan._

  /** One line per step: ranges with their conditions, scans with their keys
    * and filters, lets, conditions, the group-by with its reductions, then
    * the old-value lookup and the head.
    */
  def show: String = {
    def e(x: CExpr) = Comprehension.show(x)
    def es(xs: List[CExpr]) = xs.map(e).mkString(", ")
    def opt(label: String, xs: List[String]) =
      if (xs.isEmpty) "" else xs.mkString(s" $label ", ", ", "")
    def step(s: Step): String = s match {
      case RangeGen(v, lo, hi, conds) =>
        s"range $v <- ${e(CRange(lo, hi))}" + opt("where", conds.map(e))
      case s: Scan =>
        s"scan ${s.vars.mkString("(", ",", ")")} <- ${s.arr}" +
          opt("key", s.keys.map { case (i, k) => s"${s.idxVars(i)}=${e(k)}" }) +
          opt("filter", s.filters.map(e))
      case Let(v, x) => s"let $v = ${e(x)}"
      case Cond(x)   => s"cond ${e(x)}"
    }
    val grouping = group.map { case Group(kvars, keys, reds) =>
      s"group by (${kvars.mkString(",")}) : (${es(keys)})" +
        opt("reduce", reds.map { case (v, m, x) => s"$v = ${m.op}/${e(x)}" }) }
    val lookup = old.map { case Lookup(v, a, ks, d) =>
      s"lookup $v <- $a[${ks.mkString(",")}] default $d" }
    (pre.map(step) ++ grouping ++ post.map(step) ++ lookup :+ s"head ${es(head)}")
      .mkString("\n")
  }
}

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
  /** v ← 𝒟⟦arr⟧(keyVars): `arr`'s value at the key, or the default. */
  final case class Lookup(v: String, arr: String, keyVars: List[String],
                          default: Default)

  /** group by (kvars) : (keys), computing the (var, monoid, argument)
    * reductions.
    */
  final case class Group(kvars: List[String], keys: List[CExpr],
                         reduces: List[(String, Monoid, CExpr)])

  /** The plan of `c`, whose head columns are flattened by `headColumns`. */
  def plan(c: Comp): Plan = {
    val cols = headColumns(c.head)
    val (quals, old) = c.quals.lastOption match {
      case Some(QLookup(v, a, ks, d)) if ks.map(CVar) == cols.init =>
        (c.quals.init, Some(Lookup(v, a, ks, d)))
      case _ => (c.quals, None)
    }
    require(!quals.exists(_.isInstanceOf[QLookup]),
      "lookups other than the old value at the head's key are not generated")
    splitAtGroup(quals) match {
      case None => Plan(reuse(steps(quals, Set.empty)), None, Nil, old, cols)
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
        val bound = kvars ++ reds.map(_._1)
        Plan(reuse(steps(pre, Set.empty)), Some(Group(kvars, keys, reds)),
          reuse(steps(post, bound.toSet), bound), old, headColumns(head))
    }
  }

  /** Element reuse. An array holds one value per key, so a scan whose keys
    * fix every index position reads the element of an earlier scan of the
    * same array whose full key is the same: it becomes lets of its index
    * variables to its keys and of its value variable to that element,
    * followed by its filters. Keys are compared after resolving `let`
    * aliases and the index variables earlier keys fix; an unkeyed index
    * position's key is its own variable. Only done when no variable is
    * bound twice, so a resolved key always means the same value.
    */
  private def reuse(steps: List[Step], bound0: List[String] = Nil): List[Step] = {
    val bound = bound0 ++ steps.flatMap {
      case g: Generator => g.vars
      case Let(v, _)    => List(v)
      case _: Cond      => Nil
    }
    if (bound.distinct.length != bound.length) return steps
    var alias = Map.empty[String, CExpr]                // variable → resolved value
    var read = Map.empty[(String, List[CExpr]), String] // (array, full key) → element
    def resolve(e: CExpr): CExpr = e match {
      case CVar(v) => alias.getOrElse(v, e)
      case _       => mapChildren(e)(resolve)
    }
    steps.flatMap {
      case s @ Scan(idxVars, valVar, a, _, keys, filters) =>
        alias ++= keys.map { case (i, e) => idxVars(i) -> resolve(e) }
        val full = idxVars.map(v => resolve(CVar(v)))
        read.get((a, full)) match {
          case Some(w) if keys.length == idxVars.length =>
            alias += valVar -> CVar(w)
            keys.map { case (i, e) => Let(idxVars(i), e) } ++
              (Let(valVar, CVar(w)) :: filters.map(Cond))
          case _ =>
            read += (a, full) -> valVar
            List(s)
        }
      case l @ Let(v, e) => alias += v -> resolve(e); List(l)
      case s             => List(s)
    }
  }

  /** Steps of a group-free qualifier list evaluated with `bound0` bound,
    * placed by the rule in `Plan`'s description.
    */
  private def steps(quals: List[Qual], bound0: Set[String]): List[Step] = {
    var rest = quals.toVector
    var bound = bound0
    def ready(q: Qual): Boolean = q match {
      case QPred(e)   => freeVars(e).subsetOf(bound)
      case QLet(_, e) => freeVars(e).subsetOf(bound)
      case _          => true
    }
    val out = List.newBuilder[Step]
    while (rest.nonEmpty) {
      val i = rest.indexWhere(ready)
      if (i < 0) throw new IllegalArgumentException(
        s"unbound qualifiers: ${rest.map(show).mkString("; ")}")
      val q = rest(i)
      rest = rest.patch(i, Nil, 1)
      // the remaining conditions `vs` complete and that mention one of them
      def carry(vs: List[String]): List[CExpr] = {
        val after = bound ++ vs
        val (carried, left) = rest.partition {
          case QPred(e) => freeVars(e).subsetOf(after) && vs.exists(freeVars(e))
          case _        => false
        }
        rest = left
        carried.toList.collect { case QPred(e) => e }
      }
      q match {
        case Gen(List(v), CRange(lo, hi)) => out += RangeGen(v, lo, hi, carry(List(v)))
        case Gen(vs @ (_ :: _ :: _), CArr(a)) =>
          val (idxVars, valVar) = (vs.init, vs.last)
          val conds = carry(vs)
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
        case QLet(v, e) => out += Let(v, e)
        case QPred(e) => out += Cond(e)
        case q @ (_: QGroup | _: QLookup) =>
          throw new IllegalArgumentException(s"unexpected ${show(q)}")
      }
      bound ++= boundVars(q)
    }
    out.result()
  }
}
