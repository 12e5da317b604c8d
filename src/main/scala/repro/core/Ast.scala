package repro.core

/** Abstract syntax of the loop-based source language (paper Figure 1).
  *
  * Programs are sequences of statements over scalars and sparse arrays
  * (vectors, matrices, key-value maps). Arrays are not nested (a paper
  * restriction); destinations are either plain variables or array accesses.
  */
object Ast {

  /** Types (paper Fig. 1). Parametric collection types carry the key arity
    * used by the translator: vector/map = 1 key, matrix = 2 keys.
    */
  sealed trait Type
  case object IntT    extends Type
  case object LongT   extends Type
  case object DoubleT extends Type
  case object BoolT   extends Type
  case object StringT extends Type
  final case class TupleT(elems: List[Type])       extends Type
  final case class VectorT(elem: Type)             extends Type
  final case class MatrixT(elem: Type)             extends Type
  final case class MapT(key: Type, elem: Type)     extends Type

  /** Key arity of a collection type, None for scalars. */
  def keyArity(t: Type): Option[Int] = t match {
    case VectorT(_) | MapT(_, _) => Some(1)
    case MatrixT(_)              => Some(2)
    case _                       => None
  }

  /** Expressions. */
  sealed trait Expr
  final case class IntLit(v: Long)         extends Expr
  final case class DoubleLit(v: Double)    extends Expr
  final case class BoolLit(v: Boolean)     extends Expr
  final case class StringLit(v: String)    extends Expr
  final case class Ref(name: String)       extends Expr
  /** Array indexing `V[e]` / `M[e1,e2]`. */
  final case class Index(arr: String, idx: List[Expr]) extends Expr
  /** Record/tuple projection `e.A`, `e._1`. */
  final case class FieldAcc(e: Expr, field: String) extends Expr
  final case class BinOp(op: String, l: Expr, r: Expr) extends Expr
  final case class UnOp(op: String, e: Expr) extends Expr
  final case class TupleE(elems: List[Expr]) extends Expr
  /** Builtin calls: sqrt, pow, abs, exp, log; also vector()/matrix()/map()
    * empty-collection constructors in declarations.
    */
  final case class CallE(f: String, args: List[Expr]) extends Expr

  /** Direct subexpressions of an expression, left to right. */
  def children(e: Expr): List[Expr] = e match {
    case Index(_, idx)  => idx
    case FieldAcc(b, _) => List(b)
    case BinOp(_, l, r) => List(l, r)
    case UnOp(_, b)     => List(b)
    case TupleE(es)     => es
    case CallE(_, as)   => as
    case IntLit(_) | DoubleLit(_) | BoolLit(_) | StringLit(_) | Ref(_) => Nil
  }

  /** Rebuild an expression with `f` applied to its direct subexpressions,
    * left to right.
    */
  def mapChildren(e: Expr)(f: Expr => Expr): Expr = e match {
    case Index(a, idx)   => Index(a, idx.map(f))
    case FieldAcc(b, fl) => FieldAcc(f(b), fl)
    case BinOp(op, l, r) => BinOp(op, f(l), f(r))
    case UnOp(op, b)     => UnOp(op, f(b))
    case TupleE(es)      => TupleE(es.map(f))
    case CallE(g, as)    => CallE(g, as.map(f))
    case IntLit(_) | DoubleLit(_) | BoolLit(_) | StringLit(_) | Ref(_) => e
  }

  /** L-values (destinations). Field destinations are not needed by any
    * benchmark and are rejected by the parser.
    */
  sealed trait LVal { def name: String }
  final case class LVar(name: String) extends LVal
  final case class LIndex(name: String, idx: List[Expr]) extends LVal

  /** Statements. `IncrAssign(d, op, e)` is the incremental update `d ⊕= e`
    * for a commutative monoid op in {+, *, &&, ||, min, max}.
    */
  sealed trait Stmt
  final case class Decl(name: String, tpe: Type, init: Expr) extends Stmt
  final case class Assign(d: LVal, e: Expr) extends Stmt
  final case class IncrAssign(d: LVal, op: String, e: Expr) extends Stmt
  final case class ForRange(v: String, lo: Expr, hi: Expr, body: Stmt) extends Stmt
  final case class ForIn(v: String, coll: String, body: Stmt) extends Stmt
  final case class While(cond: Expr, body: Stmt) extends Stmt
  final case class If(cond: Expr, thenS: Stmt, elseS: Option[Stmt]) extends Stmt
  final case class Block(stmts: List[Stmt]) extends Stmt

  /** Flatten nested blocks into a statement list. */
  def flatten(s: Stmt): List[Stmt] = s match {
    case Block(ss) => ss.flatMap(flatten)
    case other     => List(other)
  }
}
