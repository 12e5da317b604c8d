package repro.spark

import repro.SparkSpec
import repro.core.Diablo
import repro.core.Translate.{ArraySig, ScalarSig, Sig, TStmt}
import repro.local.LocalBackend
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
