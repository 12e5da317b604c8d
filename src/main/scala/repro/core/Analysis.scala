package repro.core

import Ast._

/** Static restrictions for parallelization (paper §3.2, Definition 3.1).
  *
  * For every top-level for-loop we collect each simple statement's
  * readers ℛ, writers 𝒲 and aggregators 𝒜 (as L-values), and check:
  *
  *  1. every non-incremental update destination is *affine*: its indexes are
  *     affine expressions of the enclosing loop indexes and cover all loop
  *     indexes in the statement's context;
  *  2. no aggregated/written L-value overlaps a read L-value, except
  *     (a) write-then-read of the *same* affine location, or
  *     (b) increment-then-read of the same location when
  *         context(s1) ∩ context(s2) = indexes(d).
  *
  * A for-loop containing a while-loop is sequential (not checked here);
  * declarations inside for-loops are rejected.
  */
object Analysis {

  final case class Violation(stmt: String, msg: String) {
    override def toString = s"$msg in: $stmt"
  }

  /** One simple statement inside a loop, with its preorder position and
    * context (enclosing loop-index variables). For-in element variables
    * contribute a synthetic index that can never occur in a destination,
    * making non-incremental writes under a for-in conservatively rejected
    * unless they do not depend on the traversal.
    */
  private final case class Entry(
      pos: Int,
      context: Set[String],
      readers: List[LVal],
      writers: List[LVal],
      aggregators: List[LVal],
      show: String)

  /** Check a whole program: every top-level for-loop must satisfy Def 3.1.
    * While-loop bodies are re-checked recursively (their for-loops are
    * parallelized per iteration).
    */
  def check(prog: List[Stmt]): List[Violation] =
    prog.flatMap {
      case f: ForRange => checkLoop(f)
      case f: ForIn    => checkLoop(f)
      case While(_, body) => check(flatten(body))
      case If(_, t, e) => check(flatten(t)) ++ e.toList.flatMap(s => check(flatten(s)))
      case b: Block    => check(flatten(b))
      case _           => Nil
    }

  /** Check one top-level for-loop. */
  def checkLoop(loop: Stmt): List[Violation] = {
    val entries  = List.newBuilder[Entry]
    val errs     = List.newBuilder[Violation]
    var position = 0

    def visit(s: Stmt, ctx: Set[String], loopVars: Set[String]): Unit = s match {
      case Decl(n, _, _) =>
        errs += Violation(showStmt(s), s"declaration of '$n' inside a for-loop is not allowed")
      case ForRange(v, lo, hi, body) =>
        if (loopVars(v))
          errs += Violation(showStmt(s), s"duplicate loop index '$v'")
        // loop bounds are read in every iteration
        entries += Entry(position, ctx, lvalReads(lo, loopVars) ++ lvalReads(hi, loopVars),
                         Nil, Nil, s"for $v = ...")
        position += 1
        flatten(body).foreach(visit(_, ctx + v, loopVars + v))
      case ForIn(v, coll, body) =>
        val synth = s"$$$v"
        entries += Entry(position, ctx, List(LVar(coll)), Nil, Nil, s"for $v in $coll")
        position += 1
        flatten(body).foreach(visit(_, ctx + synth, loopVars + synth))
      case While(_, _) =>
        // A for-loop containing a while is evaluated sequentially (paper
        // §3.1); it is outside the parallelizable fragment handled here.
        errs += Violation(showStmt(s), "while-loop nested in a for-loop is sequential (unsupported)")
      case If(c, t, e) =>
        entries += Entry(position, ctx, lvalReads(c, loopVars), Nil, Nil, "if (...)")
        position += 1
        flatten(t).foreach(visit(_, ctx, loopVars))
        e.foreach(es => flatten(es).foreach(visit(_, ctx, loopVars)))
      case Block(ss) => ss.foreach(visit(_, ctx, loopVars))
      case Assign(d, e) =>
        entries += Entry(position, ctx,
          lvalReads(e, loopVars) ++ destIndexReads(d, loopVars),
          List(d), Nil, showStmt(s))
        position += 1
      case IncrAssign(d, _, e) =>
        entries += Entry(position, ctx,
          lvalReads(e, loopVars) ++ destIndexReads(d, loopVars),
          Nil, List(d), showStmt(s))
        position += 1
    }

    visit(loop, Set.empty, Set.empty)
    val es = entries.result()
    val loopVarUniverse: Set[String] = es.flatMap(_.context).toSet

    // Restriction 1: non-incremental destinations must be affine.
    for (e <- es; d <- e.writers)
      if (!affine(d, e.context, loopVarUniverse))
        errs += Violation(e.show,
          s"destination ${showLVal(d)} is not affine (must use affine indexes covering loop indexes ${e.context.mkString("{", ",", "}")})")

    // Restriction 2 with exceptions (a) and (b).
    for (s1 <- es; s2 <- es) {
      for (d1 <- s1.writers ++ s1.aggregators; d2 <- s2.readers if overlap(d1, d2)) {
        val isWrite = s1.writers.contains(d1)
        val okA = isWrite && d1 == d2 && s1.pos < s2.pos
        val okB = !isWrite && d1 == d2 && s1.pos < s2.pos &&
          affine(d2, s2.context, loopVarUniverse) &&
          (s1.context intersect s2.context) == indexesOf(d1, loopVarUniverse)
        if (!okA && !okB)
          errs += Violation(s2.show,
            s"${showLVal(d2)} is read while ${showLVal(d1)} is ${if (isWrite) "written" else "incremented"} in the same loop (${s1.show})")
      }
    }
    errs.result().distinct
  }

  // ------------------------------------------------------------ L-values

  /** L-values read by an expression: state variable refs and array accesses
    * (plus reads inside index expressions). Loop index variables are not
    * state and are excluded.
    */
  private def lvalReads(e: Expr, loopVars: Set[String]): List[LVal] = e match {
    case Ref(n) => if (loopVars(n)) Nil else List(LVar(n))
    case Index(a, idx) => LIndex(a, idx) :: idx.flatMap(lvalReads(_, loopVars))
    case _ => children(e).flatMap(lvalReads(_, loopVars))
  }

  /** Index expressions of a destination are themselves reads. */
  private def destIndexReads(d: LVal, loopVars: Set[String]): List[LVal] = d match {
    case LVar(_)        => Nil
    case LIndex(_, idx) => idx.flatMap(lvalReads(_, loopVars))
  }

  /** Two L-values overlap when they refer to the same variable/array name. */
  def overlap(d1: LVal, d2: LVal): Boolean = d1.name == d2.name

  /** Loop indexes used in a destination. */
  def indexesOf(d: LVal, loopVars: Set[String]): Set[String] = d match {
    case LVar(_)        => Set.empty
    case LIndex(_, idx) => idx.flatMap(vars).toSet intersect loopVars
  }

  /** affine(d, s): every index is an affine expression of loop indexes and
    * all loop indexes in the statement's context are used in d. A plain
    * variable destination is affine only in an empty context (it denotes a
    * single location).
    */
  def affine(d: LVal, context: Set[String], loopVars: Set[String]): Boolean = d match {
    case LVar(_) => context.isEmpty
    case LIndex(_, idx) =>
      idx.forall(affineExpr(_, loopVars)) &&
        context.subsetOf(idx.flatMap(vars).toSet)
  }

  /** Affine expression: c0 + c1*i1 + ... + ck*ik with constant coefficients.
    * Non-loop variables count as constants; array reads do not.
    */
  def affineExpr(e: Expr, loopVars: Set[String]): Boolean = {
    def isConst(x: Expr): Boolean = x match {
      case IntLit(_) | DoubleLit(_) => true
      case Ref(n)                   => !loopVars(n)
      case BinOp("+" | "-" | "*" | "/" | "%", l, r) => isConst(l) && isConst(r)
      case UnOp("-", b)             => isConst(b)
      case _                        => false
    }
    e match {
      case _ if isConst(e)    => true
      case Ref(_)             => true
      case BinOp("+" | "-", l, r) => affineExpr(l, loopVars) && affineExpr(r, loopVars)
      case BinOp("*", l, r)   => (isConst(l) && affineExpr(r, loopVars)) ||
                                 (isConst(r) && affineExpr(l, loopVars))
      case UnOp("-", b)       => affineExpr(b, loopVars)
      case _                  => false
    }
  }

  private def vars(e: Expr): Set[String] = e match {
    case Ref(n) => Set(n)
    case _      => children(e).flatMap(vars).toSet
  }

  // ------------------------------------------------------------- display

  def showLVal(d: LVal): String = d match {
    case LVar(n)        => n
    case LIndex(n, idx) => s"$n[${idx.map(showExpr).mkString(",")}]"
  }

  def showExpr(e: Expr): String = e match {
    case IntLit(v)      => v.toString
    case DoubleLit(v)   => v.toString
    case BoolLit(v)     => v.toString
    case StringLit(v)   => "\"" + v + "\""
    case Ref(n)         => n
    case Index(a, idx)  => s"$a[${idx.map(showExpr).mkString(",")}]"
    case FieldAcc(b, f) => s"${showExpr(b)}.$f"
    case BinOp(op, l, r) => s"(${showExpr(l)} $op ${showExpr(r)})"
    case UnOp(op, b)    => s"$op${showExpr(b)}"
    case TupleE(es)     => es.map(showExpr).mkString("(", ",", ")")
    case CallE(f, as)   => s"$f(${as.map(showExpr).mkString(",")})"
  }

  def showStmt(s: Stmt): String = s match {
    case Decl(n, _, _)        => s"var $n = ..."
    case Assign(d, e)         => s"${showLVal(d)} := ${showExpr(e)}"
    case IncrAssign(d, op, e) => s"${showLVal(d)} $op= ${showExpr(e)}"
    case ForRange(v, _, _, _) => s"for $v = ... do ..."
    case ForIn(v, c, _)       => s"for $v in $c do ..."
    case While(_, _)          => "while (...) ..."
    case If(_, _, _)          => "if (...) ..."
    case Block(_)             => "{...}"
  }
}
