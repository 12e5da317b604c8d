package repro.spark

import repro.SparkSpec
import repro.core.Diablo
import repro.core.Translate.{ArraySig, ScalarSig, Sig, TStmt, TWhileS}
import repro.local.{Executor, LocalBackend}
import repro.local.LocalBackend.{ArrayD, Data, Rec, ScalarD}
import repro.programs.Benchmarks

/** End-to-end: every benchmark program, translated by DIABLO and executed
  * on the Spark DataFrame backend, must agree with the sequential local
  * backend (the reference interpreter).
  */
class SparkBackendSmokeSpec extends SparkSpec {

  def assertAgree(pName: String, scale: Int): Unit = {
    val p = Benchmarks.byName(pName)
    assertAgree(pName, Diablo.compile(p.source, p.sigs), p.data(scale, 42), p.outputs)
  }

  def assertAgree(label: String, code: List[TStmt], data: Map[String, Data],
                  outputs: List[String]): Unit =
    SparkTestUtil.assertAgree(spark, label, code, data, outputs)

  test("empty input arrays agree with the local backend") {
    val src = """var s: double = 0.0; for v in V do s += v;
                |var C: map[string,long] = map(); for w in W do C[w] += 1;""".stripMargin
    val sigs: Map[String, Sig] = Map("V" -> ArraySig(1), "W" -> ArraySig(1))
    val empty = ArrayD(Map.empty, 1)
    assertAgree("empty", Diablo.compile(src, sigs), Map("V" -> empty, "W" -> empty),
      List("s", "C"))
  }

  test("range bounds that depend on loop variables agree with the local backend") {
    val sigs: Map[String, Sig] = Map("V" -> ArraySig(1), "n" -> ScalarSig)
    val data = Map("V" -> ArrayD((0 until 4).map(i => List[Any](i.toLong) -> (i + 1.0)).toMap, 1),
                   "n" -> ScalarD(4L))
    // the second inner range is empty (lo > hi) when i = n-1
    for (inner <- List("for j = 0, i", "for j = i+1, n-1")) {
      val code = Diablo.compile(
        s"var s: double = 0.0; for i = 0, n-1 do $inner do s += V[j];", sigs)
      assert(LocalBackend.run(code, data)("s") == ScalarD(20.0), inner)
      assertAgree(inner, code, data, List("s"))
    }
  }

  test("a tuple-valued scalar assignment keeps the whole tuple") {
    val sigs: Map[String, Sig] = Map("V" -> ArraySig(1))
    val data = Map("V" -> ArrayD(Map(List[Any](0L) -> 2.5), 1))
    val code = Diablo.compile("var m: (double,long) = (V[0], 1);", sigs)
    assert(LocalBackend.run(code, data)("m") == ScalarD(Rec(Vector("_1" -> 2.5, "_2" -> 1L))))
    assertAgree("tuple", code, data, List("m"))
  }

  private val allMonoids =
    """var s: double = 0.0; var p: double = 1.0; var n: long = 1;
      |var lo: double = 1.0e30; var hi: double = -1.0e30;
      |var all: bool = true; var any: bool = false;
      |for v in V do { s += v; p *= v; n *= 2; lo min= v; hi max= v;
      |  all &&= v > 0.0; any ||= v > 3.0; };""".stripMargin
  private val allMonoidOutputs = List("s", "p", "n", "lo", "hi", "all", "any")

  private def fusedRuns(code: List[TStmt]): List[Int] =
    Executor.runs(code).collect { case Right(run) => run.length }

  test("a fused run over every monoid agrees with the local backend") {
    val code = Diablo.compile(allMonoids, Map("V" -> ArraySig(1)))
    assert(fusedRuns(code) == List(7))
    val data = Map("V" -> ArrayD((0 until 5).map(i => List[Any](i.toLong) -> (i + 1.0)).toMap, 1))
    val local = LocalBackend.run(code, data)
    assert(allMonoidOutputs.map(local(_)) ==
      List(15.0, 120.0, 32L, 1.0, 5.0, true, true).map(ScalarD(_)))
    assertAgree("fused", code, data, allMonoidOutputs)
  }

  test("a fused run over an empty array keeps every initial value") {
    val code = Diablo.compile(allMonoids, Map("V" -> ArraySig(1)))
    val data = Map("V" -> ArrayD(Map.empty, 1))
    assert(LocalBackend.run(code, data)("n") == ScalarD(1L))
    assertAgree("fused empty", code, data, allMonoidOutputs)
  }

  test("a fused run inside a while body agrees with the local backend") {
    val code = Diablo.compile(
      """var k: long = 0; var s: double = 0.0; var m: double = 0.0;
        |while (k < 3) { k += 1; for v in V do { s += v * k; m max= v * k; }; };""".stripMargin,
      Map("V" -> ArraySig(1)))
    val TWhileS(_, body) = code.last: @unchecked
    assert(fusedRuns(body) == List(2))
    val data = Map("V" -> ArrayD((0 until 4).map(i => List[Any](i.toLong) -> (i + 1.0)).toMap, 1))
    assert(LocalBackend.run(code, data)("s") == ScalarD(60.0))
    assertAgree("fused while", code, data, List("k", "s", "m"))
  }

  test("long overflow raises on both backends") {
    val code = Diablo.compile("var s: long = 0; for v in V do s += v * v;",
      Map("V" -> ArraySig(1)))
    val data = Map("V" -> ArrayD(Map(List[Any](0L) -> (1L << 40)), 1))
    intercept[ArithmeticException](LocalBackend.run(code, data))
    val e = intercept[Exception](
      SparkBackend.run(code, SparkBackend.fromLocal(spark, data), spark))
    assert(Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
      .exists(x => String.valueOf(x.getMessage).contains("ARITHMETIC_OVERFLOW")), e)
  }

  test("Sum on Spark")            { assertAgree("Sum", 50) }
  test("Count on Spark")          { assertAgree("Count", 50) }
  test("Average on Spark")        { assertAgree("Average", 50) }
  test("Conditional Count on Spark") { assertAgree("Conditional Count", 50) }
  test("Conditional Sum on Spark")   { assertAgree("Conditional Sum", 50) }
  test("Equal on Spark")          { assertAgree("Equal", 30) }
  test("Equal Frequency on Spark"){ assertAgree("Equal Frequency", 30) }
  test("String Match on Spark")   { assertAgree("String Match", 2000) }
  test("Word Count on Spark")     { assertAgree("Word Count", 100) }
  test("Histogram on Spark")      { assertAgree("Histogram", 60) }
  test("Linear Regression on Spark") { assertAgree("Linear Regression", 80) }
  test("Group-By on Spark")       { assertAgree("Group-By", 80) }
  test("Matrix Addition on Spark"){ assertAgree("Matrix Addition", 6) }
  test("Matrix Multiplication on Spark") { assertAgree("Matrix Multiplication", 5) }
  test("PageRank on Spark")       { assertAgree("PageRank", 30) }
  test("KMeans on Spark")         { assertAgree("KMeans", 60) }
  test("PCA on Spark")            { assertAgree("PCA", 20) }
  test("Matrix Factorization on Spark") { assertAgree("Matrix Factorization", 8) }
}
