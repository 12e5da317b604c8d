package repro.baselines

import repro.core.Ast._
import repro.core.Parser

/** MOLD-mechanism simulator (Table 1 baseline).
  *
  * MOLD [Radoi et al., OOPSLA'14] translates imperative loops by searching
  * for rewrite-rule (template) applications over the program IR. This
  * simulator reproduces that mechanism: a breadth-first search over states,
  * where each step either applies a *template* that converts one loop into
  * an algebraic operator (fold / map / groupBy / the dedicated
  * matrix-multiply template) or applies a *structural* rewrite (top-level
  * loop-body splitting) that grows the search space. Translation succeeds
  * when no imperative loop remains, and fails when the state budget is
  * exhausted.
  *
  * Faithful limitations (the reason the paper's Table 1 has blanks/fails):
  *  - group-by templates only accept reads of other arrays subscripted
  *    *directly* by loop variables (zippable accesses); PageRank's
  *    `C[e.src]` is a computed subscript and cannot match;
  *  - structural splitting only applies at the top level of a loop body, so
  *    matrix factorization's doubly-nested double update is out of reach.
  */
object MoldSim {

  sealed trait Result { def states: Int }
  final case class Translated(ops: List[String], states: Int) extends Result
  final case class Failed(reason: String, states: Int) extends Result

  /** A search state: the remaining imperative statements plus the algebraic
    * operators emitted so far.
    */
  private final case class State(prog: List[Stmt], ops: List[String]) {
    def done: Boolean = prog.isEmpty
  }

  private val MaxStates = 2_000_000 // the state budget of one search

  def translate(source: String): Result = {
    val prog = Parser.parse(source)
    val start = State(prog.flatMap(flatten), Nil)
    val seen  = scala.collection.mutable.Set.empty[List[Stmt]]
    val queue = scala.collection.mutable.Queue(start)
    var states = 0
    while (queue.nonEmpty) {
      val st = queue.dequeue()
      states += 1
      if (states > MaxStates) return Failed("state budget exhausted", states)
      if (st.done) return Translated(st.ops.reverse, states)
      for (next <- expand(st)) {
        if (!seen(next.prog)) { seen += next.prog; queue += next }
      }
    }
    Failed("no template matches the remaining loops", states)
  }

  /** All successor states: template applications on any statement plus
    * structural rewrites.
    */
  private def expand(st: State): List[State] = {
    val out = List.newBuilder[State]
    for ((s, i) <- st.prog.zipWithIndex) {
      def replaced(rest: List[Stmt], op: String): State =
        State(st.prog.take(i) ::: rest ::: st.prog.drop(i + 1), op :: st.ops)
      s match {
        case _: Decl => out += replaced(Nil, "decl")
        case Assign(LVar(_), _) => out += replaced(Nil, "driver-assign")
        case Assign(LIndex(_, _), _) => out += replaced(Nil, "point-update")
        case loop @ (_: ForRange | _: ForIn) =>
          for (op <- templates(loop)) out += replaced(Nil, op)
          // structural rewrite: split a multi-statement top-level loop body
          splitTopLevel(loop).foreach(ls => out += State(
            st.prog.take(i) ::: ls ::: st.prog.drop(i + 1), st.ops))
        case _ => ()
      }
    }
    out.result()
  }

  /** Loop-body splitting, only at the *top* level of the loop body. */
  private def splitTopLevel(loop: Stmt): Option[List[Stmt]] = loop match {
    case ForRange(v, lo, hi, Block(ss)) if ss.length > 1 =>
      Some(ss.map(s => ForRange(v, lo, hi, s)))
    case ForIn(v, c, Block(ss)) if ss.length > 1 =>
      Some(ss.map(s => ForIn(v, c, s)))
    case _ => None
  }

  /** Templates that convert a whole loop into one algebraic operator. */
  private def templates(loop: Stmt): List[String] = loop match {
    // fold: for v in V do [if (p)] acc ⊕= f(v), f reads no arrays
    case ForIn(_, coll, body) => flatBody(body) match {
      case Some(IncrAssign(LVar(_), op, e)) if zippable(e) =>
        List(s"fold[$op]($coll)")
      case Some(IncrAssign(LIndex(_, key), op, e)) if key.forall(zippable) && zippable(e) =>
        List(s"groupBy($coll).fold[$op]")
      case _ => Nil
    }
    case ForRange(_, _, _, body) => rangeTemplates(body)
    case _ => Nil
  }

  private def rangeTemplates(body: Stmt): List[String] = body match {
    // matrix multiply: for i { for j { R:=0; for k R += M[i,k]*N[k,j] } }
    case ForRange(_, _, _, inner) => flatten(inner) match {
      case List(Assign(LIndex(r1, _), _),
                ForRange(_, _, _, IncrAssign(LIndex(r2, _), "+",
                  BinOp("*", Index(_, _), Index(_, _))))) if r1 == r2 =>
        List("join-reduce(matmul)")
      case List(single) => rangeTemplates2(single)
      case _ => Nil
    }
    case single => rangeTemplates2(single)
  }

  /** map / groupBy / argmin-reduce over range loops: all array reads must be
    * subscripted directly by loop variables (zippable).
    */
  private def rangeTemplates2(s: Stmt): List[String] = s match {
    case Assign(LIndex(a, keys), e) if keys.forall(zippable) && zippable(e) =>
      List(s"map($a)")
    case IncrAssign(LIndex(a, keys), op, e) if keys.forall(zippable) && zippable(e) =>
      List(s"groupBy($a).fold[$op]")
    case IncrAssign(LVar(_), op, e) if zippable(e) =>
      List(s"fold[$op]")
    case ForRange(_, _, _, inner) => rangeTemplates2(inner).map(o => s"nest($o)")
    case If(c, t, None) if zippable(c) =>
      rangeTemplates2(t).map(o => s"filter.$o")
    case _ => Nil
  }

  private def flatBody(body: Stmt): Option[Stmt] = body match {
    case Block(List(s))    => flatBody(s)
    case If(_, t, None)    => flatBody(t) // condition checked by caller via zippable
    case s @ (_: Assign | _: IncrAssign) => Some(s)
    case _                 => None
  }

  /** All array accesses in e are subscripted *directly* by variables
    * (zippable reads). A computed subscript such as `P[e.src]` or
    * `V[W[i]]` requires a join and has no MOLD template.
    */
  private def zippable(e: Expr): Boolean = e match {
    case Index(_, idx) => idx.forall { case Ref(_) => true; case _ => false }
    case _             => children(e).forall(zippable)
  }
}
