package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Comprehension._
import repro.core.Translate._

/** Translation-rule tests (Figure 2, §3.9 examples): structural properties
  * of the generated target code.
  */
class TranslateSpec extends AnyFunSuite {

  private def tr(src: String, sigs: Map[String, Sig]): List[TStmt] =
    Translate.translate(Parser.parse(src), sigs)
  private def opt(src: String, sigs: Map[String, Sig]): List[TStmt] =
    Diablo.compile(src, sigs)

  private def gens(c: Comp)    = c.quals.collect { case g: Gen => g }
  private def groups(c: Comp)  = c.quals.collect { case g: QGroup => g }
  private def lookups(c: Comp) = c.quals.collect { case l: QLookup => l }

  val vecV: Map[String, Sig] = Map("V" -> ArraySig(1))
  val vecVW: Map[String, Sig] = Map("V" -> ArraySig(1), "W" -> ArraySig(1))
  val vecVWK: Map[String, Sig] =
    Map("V" -> ArraySig(1), "W" -> ArraySig(1), "K" -> ArraySig(1))

  // ----------------------------------------------- §3.9 example shapes

  test("non-incremental vector copy (§3.9): merge assignment, no group-by") {
    val List(TAssign("V", c, true)) = tr("for i = 1, 10 do V[i] := W[i];", vecVW): @unchecked
    assert(groups(c).isEmpty)
    assert(gens(c).exists { case Gen(_, CRange(_, _)) => true; case _ => false })
    assert(gens(c).exists { case Gen(_, CArr("W")) => true; case _ => false })
  }

  test("incremental indirect update (§3.9): group-by plus old-value lookup") {
    val List(TAssign("W", c, true)) =
      tr("for i = 1, 10 do W[K[i]] += V[i];", vecVWK): @unchecked
    assert(groups(c).size == 1)
    val List(QLookup(_, "W", _, DZero)) = lookups(c): @unchecked
    // generators over the range, V, and K (before optimization)
    assert(gens(c).size == 3)
  }

  test("matrix multiplication translates to join + group-by (§1.1)") {
    val p = repro.programs.Benchmarks.matrixMultiplication
    val code = tr(p.source, p.sigs)
    // init R; R[i,j] := 0 merge; R[i,j] += ... with group-by over (i,j)
    val incr = code.collect {
      case TAssign("R", c, true) if groups(c).nonEmpty => c }
    assert(incr.size == 1)
    val c = incr.head
    assert(groups(c).head.kvars.size == 2)
    assert(gens(c).exists { case Gen(_, CArr("M")) => true; case _ => false })
    assert(gens(c).exists { case Gen(_, CArr("N")) => true; case _ => false })
  }

  test("loop fission (15h): block statements become separate assignments") {
    val code = tr("for v in V do { a += v; b += 1; };",
      vecV ++ Map("a" -> ScalarSig, "b" -> ScalarSig))
    assert(code.length == 2)
    assert(code.forall(_.isInstanceOf[TAssign]))
  }

  test("scalar increment gets a unit group-by (15a)") {
    val List(TAssign("s", c, false)) =
      tr("for v in V do s += v;", vecV ++ Map("s" -> ScalarSig)): @unchecked
    assert(groups(c) == List(QGroup(Nil, Nil)))
    assert(c.head match {
      case CBin("+", CState("s"), CReduce(MSum, _)) => true; case _ => false })
  }

  test("if-condition becomes a predicate qualifier (15g)") {
    val List(TAssign(_, c, _)) =
      tr("for v in V do if (v < 100.0) s += v;", vecV ++ Map("s" -> ScalarSig)): @unchecked
    assert(c.quals.exists {
      case QPred(CBin("<", _, _)) => true; case _ => false })
  }

  test("if/else duplicates with a negated predicate") {
    val code = tr("for v in V do if (v < 0.0) a += 1; else b += 1;",
      vecV ++ Map("a" -> ScalarSig, "b" -> ScalarSig))
    assert(code.length == 2)
    val negs = code.collect { case TAssign(_, c, _) =>
      c.quals.exists { case QPred(CUn("!", _)) => true; case _ => false } }
    assert(negs == List(false, true))
  }

  test("while-loop translates to a sequential TWhileS (15f)") {
    val code = tr("var k: long = 0; while (k < 3) k += 1;", Map.empty)
    assert(code.exists(_.isInstanceOf[TWhileS]))
  }

  test("declarations initialize arrays and scalars") {
    val code = tr("var C: map[string,long] = map(); var x: double = 1.5;", Map.empty)
    assert(code == List(TInit("C", 1),
      TAssign("x", Comp(CLit(1.5), Nil), false)))
  }

  test("monoid defaults follow the operation") {
    def lookupDefault(op: String): Default = {
      val List(TAssign(_, c, true)) =
        tr(s"for i = 1, 5 do V[i] $op= W[i];", vecVW): @unchecked
      lookups(c).head.default
    }
    assert(lookupDefault("+") == DZero)
    assert(lookupDefault("*") == DOne)
    assert(lookupDefault("min") == DNull)
    assert(lookupDefault("max") == DNull)
  }

  test("boolean monoid defaults") {
    val sigs: Map[String, Sig] = Map("B" -> ArraySig(1), "W" -> ArraySig(1))
    val List(TAssign(_, c1, true)) =
      tr("for i = 1, 5 do B[i] &&= W[i];", sigs): @unchecked
    assert(lookups(c1).head.default == DTrue)
    val List(TAssign(_, c2, true)) =
      tr("for i = 1, 5 do B[i] ||= W[i];", sigs): @unchecked
    assert(lookups(c2).head.default == DFalse)
  }

  // --------------------------------------------------------------- errors

  test("scalar used as array is an error") {
    assertThrows[TranslateError](tr("x[1] := 2;", Map("x" -> ScalarSig)))
  }
  test("array used as scalar is an error") {
    assertThrows[TranslateError](tr("y := V;", vecV ++ Map("y" -> ScalarSig)))
  }
  test("unknown array is an error") {
    assertThrows[TranslateError](tr("Z[1] := 2;", Map.empty))
  }
  test("for-in over a scalar is an error") {
    assertThrows[TranslateError](tr("for v in x do y += v;",
      Map("x" -> ScalarSig, "y" -> ScalarSig)))
  }
  test("indexing an array with the wrong number of indexes is an error") {
    val sigs: Map[String, Sig] = Map("M" -> ArraySig(2), "x" -> ScalarSig)
    assertThrows[TranslateError](tr("M[1] := 2.0;", sigs))
    assertThrows[TranslateError](tr("M[1] += 2.0;", sigs))
    assertThrows[TranslateError](tr("x := M[1];", sigs))
  }
  test("rejected programs raise RestrictionError via Diablo.compile") {
    assertThrows[Diablo.RestrictionError](
      Diablo.compile("for i = 1, 8 do V[i] := (V[i-1] + V[i+1])/2;", vecV))
  }

  // ------------------------------------------------------ IR traversal

  test("freeVars and extractReduces walk every expression form left to right") {
    val minC = CReduce(MMin, CVar("c"))
    val sumAB = CReduce(MSum, CBin("*", CVar("a"), CVar("b")))
    def e(r1: CExpr, r2: CExpr) = CBin("+",
      CBin("<", r1, CUn("-", CField(CVar("p"), "_1"))),
      CTup(List(CCall("sqrt", List(CState("s"))), r2, r1,
        CRange(CVar("lo"), CLit(9L)), CArr("A"))))
    assert(freeVars(e(minC, sumAB)) == Set("c", "p", "a", "b", "lo"))

    var n = 0
    val (rewritten, reds) = extractReduces(e(minC, sumAB), () => { n += 1; s"_r$n" })
    assert(reds == List(("_r1", MMin, CVar("c")),
      ("_r2", MSum, CBin("*", CVar("a"), CVar("b")))))
    assert(rewritten == e(CVar("_r1"), CVar("_r2")))
  }

  test("Ast.children and Ast.mapChildren visit every source expression form left to right") {
    import Ast._
    val e = TupleE(List(
      BinOp("+", Index("V", List(Ref("i"), IntLit(1))), UnOp("-", DoubleLit(2.0))),
      FieldAcc(CallE("f", List(Ref("a"), BoolLit(true))), "x"),
      StringLit("s")))
    def leaves(x: Expr): List[Expr] = Ast.children(x) match {
      case Nil => List(x)
      case cs  => cs.flatMap(leaves)
    }
    assert(leaves(e) ==
      List(Ref("i"), IntLit(1), DoubleLit(2.0), Ref("a"), BoolLit(true), StringLit("s")))

    var n = 0
    def number(x: Expr): Expr =
      if (Ast.children(x).isEmpty) { n += 1; Ref(s"_$n") } else Ast.mapChildren(x)(number)
    assert(number(e) == TupleE(List(
      BinOp("+", Index("V", List(Ref("_1"), Ref("_2"))), UnOp("-", Ref("_3"))),
      FieldAcc(CallE("f", List(Ref("_4"), Ref("_5"))), "x"),
      Ref("_6"))))
  }

  // ----------------------------------------------------------- optimizer

  test("range elimination: V[i] := W[i] becomes a traversal with inRange") {
    val List(TAssign("V", c, true)) = opt("for i = 1, 10 do V[i] := W[i];", vecVW): @unchecked
    assert(!gens(c).exists { case Gen(_, CRange(_, _)) => true; case _ => false },
      s"range not eliminated: ${Comprehension.show(c)}")
    // the bound filters remain
    assert(c.quals.count {
      case QPred(CBin("<=", _, _)) => true; case _ => false } == 2)
  }

  test("rule 17: unique-key group-by is removed for V[i] += W[i]") {
    val List(TAssign("V", c, true)) = opt("for i = 1, 10 do V[i] += W[i];", vecVW): @unchecked
    assert(groups(c).isEmpty, s"group-by not removed: ${Comprehension.show(c)}")
    // reduction degenerated: no CReduce remains in the head
    def hasReduce(e: CExpr): Boolean = e match {
      case CReduce(_, _) => true
      case CTup(es)      => es.exists(hasReduce)
      case CBin(_, l, r) => hasReduce(l) || hasReduce(r)
      case _             => false
    }
    assert(!hasReduce(c.head))
  }

  test("rule 17 does not fire for a non-unique key (word count)") {
    val p = repro.programs.Benchmarks.wordCount
    val code = Diablo.compile(p.source, p.sigs)
    val withGroup = code.collect { case TAssign("C", c, true) => groups(c) }
    assert(withGroup.flatten.nonEmpty)
  }

  test("rule 16: constant group-by key becomes a unit group") {
    val List(_, TAssign("M", c, true)) =
      opt("var M: matrix[double] = matrix(); M[1,2] += 1.0;", Map.empty): @unchecked
    assert(groups(c) == List(QGroup(Nil, Nil)))
  }

  test("matrix multiplication is fully range-eliminated") {
    val p = repro.programs.Benchmarks.matrixMultiplication
    val code = Diablo.compile(p.source, p.sigs)
    val incr = code.collect {
      case TAssign("R", c, true) if lookups(c).nonEmpty => c }.head
    assert(!gens(incr).exists { case Gen(_, CRange(_, _)) => true; case _ => false })
  }
}
