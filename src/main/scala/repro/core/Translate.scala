package repro.core

import Ast._
import Comprehension._

/** Target code (paper §3.8) and the Figure 2 translation rules.
  *
  * A loop-based program becomes a list of target statements: bulk array
  * assignments `V := V ◁ comprehension`, scalar assignments, and
  * (sequential) while-loops. For-loops become generators embedded into the
  * comprehensions of the assignments in their bodies (Theorem 3.1 justifies
  * the implicit loop fission performed by rule (15h)).
  */
object Translate {

  // --------------------------------------------------------- target code

  sealed trait TStmt
  /** Declare an empty array (vector/map: 1 key, matrix: 2 keys). */
  final case class TInit(name: String, keyArity: Int) extends TStmt
  /** Scalar assignment `v := head(comp)`; array assignment
    * `V := V ◁ comp` when `isArray`.
    */
  final case class TAssign(name: String, comp: Comp, isArray: Boolean) extends TStmt
  /** Sequential while-loop; the condition is a (usually generator-free)
    * comprehension evaluated on the driver.
    */
  final case class TWhileS(cond: Comp, body: List[TStmt]) extends TStmt

  def showStmt(t: TStmt): String = t match {
    case TInit(n, ka)        => s"init $n[$ka]"
    case TAssign(n, c, true) => s"$n := $n <| ${Comprehension.show(c)}"
    case TAssign(n, c, false) => s"$n := ${Comprehension.show(c)}"
    case TWhileS(c, b) =>
      s"while ${Comprehension.show(c)} {\n${b.map(showStmt).mkString("\n")}\n}"
  }

  // ------------------------------------------------------------ variable signatures

  sealed trait Sig
  case object ScalarSig extends Sig
  final case class ArraySig(keyArity: Int) extends Sig

  final class TranslateError(msg: String) extends RuntimeException(msg)

  // ----------------------------------------------------------- translator

  /** Translate a checked program given the signatures of its input
    * variables. Declarations add local signatures as they are translated.
    */
  def translate(prog: List[Stmt], inputs: Map[String, Sig]): List[TStmt] =
    new Translator(inputs).program(prog)

  private final class Translator(inputs: Map[String, Sig]) {
    private var sigs: Map[String, Sig] = inputs
    private var loopVars: Set[String] = Set.empty
    private var counter = 0
    private def fresh(prefix: String): String = { counter += 1; s"_$prefix$counter" }

    def program(prog: List[Stmt]): List[TStmt] =
      prog.flatMap(s => stmt(s, Nil))

    /** 𝒮⟦s⟧(q̄) — rules (15a)–(15h). */
    def stmt(s: Stmt, qs: List[Qual]): List[TStmt] = s match {
      case Decl(name, tpe, init) =>
        if (qs.nonEmpty)
          throw new TranslateError(s"declaration of $name inside a for-loop")
        keyArity(tpe) match {
          case Some(ka) =>
            sigs += name -> ArraySig(ka)
            List(TInit(name, ka))
          case None =>
            sigs += name -> ScalarSig
            val (qe, v) = expr(init)
            List(TAssign(name, Comp(v, qe), isArray = false))
        }

      case Assign(LVar(n), e) => // rule (15b), variable destination
        sigs.get(n) match {
          case Some(ArraySig(_)) =>
            throw new TranslateError(s"whole-array assignment to $n is not supported")
          case _ =>
            sigs += n -> ScalarSig
            val (qe, v) = expr(e)
            List(TAssign(n, Comp(v, qs ++ qe), isArray = false))
        }

      case Assign(LIndex(a, idxs), e) => // rule (15b), array destination
        arrayArity(a, idxs.length) // checks that a is an array with that arity
        val (qe, v)  = expr(e)
        val (qk, ks) = exprs(idxs)
        List(TAssign(a, Comp(CTup(ks :+ v), qs ++ qe ++ qk), isArray = true))

      case IncrAssign(LVar(n), op, e) => // rule (15a), scalar destination
        val m = Monoid.ofOp(op)
        sigs += n -> ScalarSig
        val (qe, v) = expr(e)
        val head = CBin(m.op, CState(n), CReduce(m, v))
        List(TAssign(n, Comp(head, qs ++ qe :+ QGroup(Nil, Nil)), isArray = false))

      case IncrAssign(LIndex(a, idxs), op, e) => // rule (15a), array destination
        val m  = Monoid.ofOp(op)
        val ka = arrayArity(a, idxs.length)
        val (qe, v)  = expr(e)
        val (qk, ks) = exprs(idxs)
        val kvars = List.fill(ka)(fresh("k"))
        val w     = fresh("w")
        val head  = CTup(kvars.map(CVar(_): CExpr) :+
                         CBin(m.op, CVar(w), CReduce(m, v)))
        val quals = qs ++ qe ++ qk ++
          List(QGroup(kvars, ks), QLookup(w, a, kvars, defaultOf(m)))
        List(TAssign(a, Comp(head, quals), isArray = true))

      case ForRange(v, lo, hi, body) => // rule (15d)
        val (ql, l) = expr(lo)
        val (qh, h) = expr(hi)
        withLoopVar(v) {
          stmt(body, qs ++ ql ++ qh :+ Gen(List(v), CRange(l, h)))
        }

      case ForIn(v, coll, body) => // rule (15e)
        val ka = sigs.get(coll) match {
          case Some(ArraySig(n)) => n
          case _ => throw new TranslateError(s"for-in over non-array $coll")
        }
        val ivars = List.fill(ka)(fresh("i"))
        withLoopVar(v) {
          stmt(body, qs :+ Gen(ivars :+ v, CArr(coll)))
        }

      case While(c, body) => // rule (15f): sequential
        val (qc, b) = expr(c)
        List(TWhileS(Comp(b, qc), flatten(body).flatMap(stmt(_, qs))))

      case If(c, t, eOpt) => // rule (15g); ¬p for the else branch
        val (qc, b) = expr(c)
        val thenT = stmt(t, qs ++ qc :+ QPred(b))
        val elseT = eOpt.toList.flatMap(s => stmt(s, qs ++ qc :+ QPred(CUn("!", b))))
        thenT ++ elseT

      case Block(ss) => // rule (15h): propagate q̄ to every statement
        ss.flatMap(stmt(_, qs))
    }

    private def withLoopVar[A](v: String)(f: => A): A = {
      val had = loopVars(v)
      loopVars += v
      try f finally if (!had) loopVars -= v
    }

    /** Key arity of array `a`, which the program indexes with `used` indexes. */
    private def arrayArity(a: String, used: Int): Int = sigs.get(a) match {
      case Some(ArraySig(n)) if n == used => n
      case Some(ArraySig(n)) =>
        throw new TranslateError(s"$a indexed with $used indexes but has $n")
      case Some(ScalarSig) =>
        throw new TranslateError(s"scalar $a used as an array")
      case None =>
        // arrays must be declared or be inputs
        throw new TranslateError(s"unknown array $a (declare it or pass it as input)")
    }

    /** ℰ⟦e⟧ — rules (11a)–(11g), built directly in unnested form: returns
      * the generated qualifiers plus the (scalar-typed) head expression.
      */
    def expr(e: Expr): (List[Qual], CExpr) = e match {
      case IntLit(v)    => (Nil, CLit(v))
      case DoubleLit(v) => (Nil, CLit(v))
      case BoolLit(v)   => (Nil, CLit(v))
      case StringLit(v) => (Nil, CLit(v))

      case Ref(n) =>
        if (loopVars(n)) (Nil, CVar(n))
        else sigs.get(n) match {
          case Some(ArraySig(_)) =>
            throw new TranslateError(s"array $n used as a scalar value")
          case _ => (Nil, CState(n))
        }

      case Index(a, idxs) => // rule (11c)
        val ka = arrayArity(a, idxs.length)
        val (qk, ks) = exprs(idxs)
        val ivars = List.fill(ka)(fresh("i"))
        val v     = fresh("v")
        val gen   = Gen(ivars :+ v, CArr(a))
        val preds = ivars.zip(ks).map { case (i, k) =>
          QPred(CBin("==", CVar(i), k))
        }
        (qk ++ (gen :: preds), CVar(v))

      case FieldAcc(b, f) =>
        val (q, vb) = expr(b); (q, CField(vb, f))

      case BinOp(op, l, r) => // rule (11d)
        val (ql, vl) = expr(l)
        val (qr, vr) = expr(r)
        (ql ++ qr, CBin(op, vl, vr))

      case UnOp(op, b) =>
        val (q, vb) = expr(b); (q, CUn(op, vb))

      case TupleE(es) => // rule (11e)
        val (qs2, vs) = exprs(es); (qs2, CTup(vs))

      case CallE(f, args) =>
        val (qs2, vs) = exprs(args); (qs2, call(f, vs))
    }

    private def exprs(es: List[Expr]): (List[Qual], List[CExpr]) = {
      val parts = es.map(expr)
      (parts.flatMap(_._1), parts.map(_._2))
    }
  }
}
