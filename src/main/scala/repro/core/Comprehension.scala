package repro.core

/** Monoid comprehension IR — the target calculus of the translation (§3.3).
  *
  * A comprehension `{ head | q1, ..., qn }` denotes a bag. Qualifiers are
  * generators, let-bindings, conditions, and group-bys; we add an explicit
  * `QLookup` qualifier for the 𝒟⟦d⟧(k) old-value generator of rule (15a),
  * which reads the destination array at the group key with the monoid
  * identity as default (the paper's examples assume arrays are
  * zero-initialized before a loop; the default makes that explicit).
  *
  * Comprehensions are kept in *normalized* (unnested) form: the translator
  * builds qualifier lists directly, which is exactly the result of applying
  * the paper's unnesting rule (2) eagerly.
  */
object Comprehension {

  // ------------------------------------------------------------- monoids

  /** Commutative monoids usable in incremental updates `d ⊕= e`.
    * `min`/`max` over tuples are lexicographic, which provides argmin/argmax
    * (KMeans' ArgMin is `min=` over (distance, index) pairs).
    */
  sealed abstract class Monoid(val op: String)
  case object MSum  extends Monoid("+")
  case object MProd extends Monoid("*")
  case object MAnd  extends Monoid("&&")
  case object MOr   extends Monoid("||")
  case object MMin  extends Monoid("min")
  case object MMax  extends Monoid("max")

  object Monoid {
    def ofOp(op: String): Monoid = op match {
      case "+"   => MSum
      case "*"   => MProd
      case "&&"  => MAnd
      case "||"  => MOr
      case "min" => MMin
      case "max" => MMax
      case other => throw new IllegalArgumentException(s"no monoid for '$other'")
    }
  }

  /** Default value for a missing old value in a 𝒟-lookup: the monoid
    * identity. Min/Max have no identity and use null-skipping combines.
    */
  sealed abstract class Default(val value: Any)
  case object DZero  extends Default(0L)
  case object DOne   extends Default(1L)
  case object DTrue  extends Default(true)
  case object DFalse extends Default(false)
  case object DNull  extends Default(null)

  def defaultOf(m: Monoid): Default = m match {
    case MSum  => DZero
    case MProd => DOne
    case MAnd  => DTrue
    case MOr   => DFalse
    case MMin | MMax => DNull
  }

  // --------------------------------------------------------- expressions

  sealed trait CExpr
  /** Comprehension-bound variable. */
  final case class CVar(name: String) extends CExpr
  /** Literal (Long, Double, Boolean or String). */
  final case class CLit(v: Any) extends CExpr
  /** Scalar state variable, read at evaluation time. */
  final case class CState(name: String) extends CExpr
  /** Array state variable — generator source only (a bag of flat
    * (k1,...,kn,v) tuples).
    */
  final case class CArr(name: String) extends CExpr
  /** Inclusive integer range — generator source only. */
  final case class CRange(lo: CExpr, hi: CExpr) extends CExpr
  /** l op r: a source operator, or `min`/`max`; a monoid's ⊕ is `m.op`. */
  final case class CBin(op: String, l: CExpr, r: CExpr) extends CExpr
  final case class CUn(op: String, e: CExpr) extends CExpr
  final case class CField(e: CExpr, field: String) extends CExpr
  final case class CTup(es: List[CExpr]) extends CExpr
  final case class CCall(f: String, args: List[CExpr]) extends CExpr
  /** ⊕/e — reduction of the lifted (post-group-by) values of e. */
  final case class CReduce(m: Monoid, e: CExpr) extends CExpr

  // ---------------------------------------------------------- qualifiers

  sealed trait Qual
  /** i ← range(lo, hi), or (i1,...,in,v) ← arr: names, not the paper's
    * general patterns, which the translator never builds.
    */
  final case class Gen(vars: List[String], src: CExpr) extends Qual
  final case class QLet(v: String, e: CExpr) extends Qual
  final case class QPred(e: CExpr) extends Qual
  /** group by (kvars) : (keys) — kvars are bound to the key values after
    * the group-by; pre-group variables may only be used under CReduce.
    * Empty kvars = group by the unit value (a single global group).
    */
  final case class QGroup(kvars: List[String], keys: List[CExpr]) extends Qual
  /** v ← 𝒟⟦arr⟧(keyVars) with a monoid-identity default: binds `v` to the
    * current value of `arr` at the key, or to the default if absent. Rule
    * (15a) generates it only as the last qualifier, reading the assigned
    * array at the head's key: the old value the `◁` merge combines with
    * (`Plan.old`).
    */
  final case class QLookup(v: String, arr: String, keyVars: List[String],
                           default: Default) extends Qual

  final case class Comp(head: CExpr, quals: List[Qual])

  // ------------------------------------------------------------- helpers

  /** Direct subexpressions of an expression, left to right. */
  def children(e: CExpr): List[CExpr] = e match {
    case CBin(_, l, r)     => List(l, r)
    case CUn(_, b)         => List(b)
    case CField(b, _)      => List(b)
    case CTup(es)          => es
    case CCall(_, as)      => as
    case CReduce(_, b)     => List(b)
    case CRange(l, h)      => List(l, h)
    case CVar(_) | CLit(_) | CState(_) | CArr(_) => Nil
  }

  /** Rebuild an expression with `f` applied to its direct subexpressions,
    * left to right (so fresh names drawn by `f` follow source order).
    */
  def mapChildren(e: CExpr)(f: CExpr => CExpr): CExpr = e match {
    case CBin(op, l, r)    => CBin(op, f(l), f(r))
    case CUn(op, b)        => CUn(op, f(b))
    case CField(b, fl)     => CField(f(b), fl)
    case CTup(es)          => CTup(es.map(f))
    case CCall(g, as)      => CCall(g, as.map(f))
    case CReduce(m, b)     => CReduce(m, f(b))
    case CRange(l, h)      => CRange(f(l), f(h))
    case CVar(_) | CLit(_) | CState(_) | CArr(_) => e
  }

  /** Free comprehension variables of an expression (CVar only; state
    * references are not comprehension variables).
    */
  def freeVars(e: CExpr): Set[String] = e match {
    case CVar(n) => Set(n)
    case _       => children(e).foldLeft(Set.empty[String])(_ ++ freeVars(_))
  }

  /** Variables bound by a qualifier. */
  def boundVars(q: Qual): List[String] = q match {
    case Gen(vs, _)           => vs
    case QLet(v, _)           => List(v)
    case QGroup(kv, _)        => kv
    case QLookup(v, _, _, _)  => List(v)
    case QPred(_)             => Nil
  }

  /** `f(args)`; `min(a, b)` and `max(a, b)` are their monoids' ⊕. */
  def call(f: String, args: List[CExpr]): CExpr = (f, args) match {
    case ("min" | "max", List(a, b)) => CBin(f, a, b)
    case _                           => CCall(f, args)
  }

  /** Replace every CReduce node with a fresh variable; returns the rewritten
    * expression plus the (var, monoid, argument) extraction list. Structurally
    * identical reductions share a variable.
    */
  def extractReduces(e: CExpr, fresh: () => String)
      : (CExpr, List[(String, Monoid, CExpr)]) = {
    val acc = scala.collection.mutable.LinkedHashMap.empty[(Monoid, CExpr), String]
    def go(x: CExpr): CExpr = x match {
      case CReduce(m, b) => CVar(acc.getOrElseUpdate((m, b), fresh()))
      case _             => mapChildren(x)(go)
    }
    val e2 = go(e)
    (e2, acc.toList.map { case ((m, b), v) => (v, m, b) })
  }

  /** Split a comprehension's qualifiers at the (single) group-by. */
  def splitAtGroup(quals: List[Qual])
      : Option[(List[Qual], QGroup, List[Qual])] =
    quals.indexWhere(_.isInstanceOf[QGroup]) match {
      case -1 => None
      case i  =>
        val g = quals(i).asInstanceOf[QGroup]
        require(!quals.drop(i + 1).exists(_.isInstanceOf[QGroup]),
          "multiple group-bys in one comprehension are not generated")
        Some((quals.take(i), g, quals.drop(i + 1)))
    }

  /** The flattened head components: a top-level tuple head yields its
    * components (key columns + value for array assignments), any other head
    * a single component.
    */
  def headColumns(head: CExpr): List[CExpr] = head match {
    case CTup(es) => es
    case e        => List(e)
  }

  // ------------------------------------------------------ pretty printer

  def show(c: Comp): String =
    s"{ ${show(c.head)} | ${c.quals.map(show).mkString(", ")} }"

  def show(q: Qual): String = q match {
    case Gen(List(v), s)     => s"$v <- ${show(s)}"
    case Gen(vs, s)          => s"${vs.mkString("(", ",", ")")} <- ${show(s)}"
    case QLet(v, e)          => s"let $v = ${show(e)}"
    case QPred(e)            => show(e)
    case QGroup(Nil, Nil)    => "group by ()"
    case QGroup(kv, ks)      =>
      s"group by (${kv.mkString(",")}) : (${ks.map(show).mkString(",")})"
    case QLookup(v, a, k, d) => s"$v <- lookup $a[${k.mkString(",")}] default $d"
  }

  def show(e: CExpr): String = e match {
    case CVar(n)            => n
    case CLit(s: String)    => "\"" + s + "\""
    case CLit(v)            => String.valueOf(v)
    case CState(n)          => s"$$$n"
    case CArr(n)            => n
    case CRange(l, h)       => s"range(${show(l)}, ${show(h)})"
    case CBin(op, l, r)     => s"(${show(l)} $op ${show(r)})"
    case CUn(op, b)         => s"$op${show(b)}"
    case CField(b, f)       => s"${show(b)}.$f"
    case CTup(es)           => es.map(show).mkString("(", ",", ")")
    case CCall(f, as)       => s"$f(${as.map(show).mkString(",")})"
    case CReduce(m, b)      => s"${m.op}/${show(b)}"
  }
}
