package repro.local

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Comprehension._
import repro.core.Diablo
import repro.core.Translate._
import repro.programs.Benchmarks

/** Which scalar assignments the executor evaluates as one comprehension. */
class ExecutorSpec extends AnyFunSuite {

  /** The targets of every fused run in `ts`, while bodies included. */
  private def fused(ts: List[TStmt]): List[List[String]] = Executor.runs(ts).flatMap {
    case Right(run)             => List(run.map(_.name))
    case Left(TWhileS(_, body)) => fused(body)
    case Left(_)                => Nil
  }

  test("the scalar siblings of the benchmark programs are fused, and nothing else") {
    val groups = Benchmarks.all.flatMap(p =>
      fused(Diablo.compile(p.source, p.sigs)).map(p.name -> _))
    assert(groups == List(
      "Average"           -> List("sum", "cnt"),
      "Equal Frequency"   -> List("mx", "mn"),
      "String Match"      -> List("f1", "f2", "f3"),
      "Linear Regression" -> List("sum_x", "sum_y"),
      "Linear Regression" -> List("xx_bar", "yy_bar", "xy_bar")))
  }

  // s := { $s + +/v | (_i1,v) <- V, preds..., group by () }
  private def sumOver(n: String, arr: String, head: CExpr => CExpr = identity,
                      preds: List[CExpr] = Nil): TAssign =
    TAssign(n, Comp(CBin("+", CState(n), CReduce(MSum, head(CVar("v")))),
      (Gen(List("_i1", "v"), CArr(arr)) :: preds.map(QPred)) :+
        QGroup(Nil, Nil)), isArray = false)

  private def ran(ts: TStmt*): List[Either[TStmt, List[TAssign]]] =
    Executor.runs(ts.toList)

  test("siblings over the same qualifiers are fused") {
    val (s, t) = (sumOver("s", "V"), sumOver("t", "V", CBin("*", _, CLit(2L))))
    assert(ran(s, t) == List(Right(List(s, t))))
  }

  test("a sibling whose head reads an earlier sibling's target is not fused") {
    val (s, t) = (sumOver("s", "V"), sumOver("t", "V", CBin("+", CState("s"), _)))
    assert(ran(s, t) == List(Left(s), Left(t)))
  }

  test("siblings over different qualifiers are not fused") {
    val (s, t) = (sumOver("s", "V"), sumOver("t", "W"))
    val filtered = sumOver("u", "V", preds = List(CBin(">", CVar("v"), CLit(0L))))
    assert(ran(s, t) == List(Left(s), Left(t)))
    assert(ran(s, filtered) == List(Left(s), Left(filtered)))
  }

  test("siblings whose qualifiers read a target are not fused") {
    val pred = List(CBin("<", CVar("v"), CState("s")))
    val (s, t) = (sumOver("s", "V", preds = pred), sumOver("t", "V", preds = pred))
    assert(ran(s, t) == List(Left(s), Left(t)))
    assert(ran(t, s) == List(Left(t), Left(s)))
  }

  test("an array statement between two siblings separates them") {
    val (s, t) = (sumOver("s", "V"), sumOver("t", "V"))
    val a = TAssign("A", Comp(CTup(List(CVar("_i1"), CVar("v"))),
      List(Gen(List("_i1", "v"), CArr("V")))), isArray = true)
    assert(ran(s, a, t) == List(Left(s), Left(a), Left(t)))
  }
}
