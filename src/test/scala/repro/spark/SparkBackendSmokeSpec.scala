package repro.spark

import repro.SparkSpec
import repro.core.Diablo
import repro.core.Translate.{ArraySig, Sig, TStmt}
import repro.local.LocalBackend
import repro.local.LocalBackend.{ArrayD, Data, ScalarD}
import repro.programs.Benchmarks
import repro.spark.SparkBackend._

/** End-to-end: every benchmark program, translated by DIABLO and executed
  * on the Spark DataFrame backend, must agree with the sequential local
  * backend (the reference interpreter).
  */
class SparkBackendSmokeSpec extends SparkSpec {

  def assertSameValue(name: String, a: Any, b: Any): Unit = (a, b) match {
    case (x: Double, y: Double) =>
      assert(math.abs(x - y) <= 1e-6 * (1.0 + math.abs(x)), name)
    case (x, y) => assert(x == y, name)
  }

  def assertAgree(pName: String, scale: Int): Unit = {
    val p = Benchmarks.byName(pName)
    assertAgree(pName, Diablo.compile(p.source, p.sigs), p.data(scale, 42), p.outputs)
  }

  def assertAgree(label: String, code: List[TStmt], data: Map[String, Data],
                  outputs: List[String]): Unit = {
    val localSt = LocalBackend.run(code, data)
    val sparkSt = SparkBackend.run(code, fromLocal(spark, data), spark)
    for (o <- outputs) (localSt(o), sparkSt(o)) match {
      case (ScalarD(a), SScalar(b)) => assertSameValue(s"$label.$o", a, b)
      case (ArrayD(m, ka), SArr(df, ka2)) =>
        assert(ka == ka2, s"$label.$o arity")
        val got = df.map(dfToArray(_, ka2).m).getOrElse(Map.empty)
        assert(got.keySet == m.keySet,
          s"$label.$o keys: missing=${(m.keySet -- got.keySet).take(3)} " +
          s"extra=${(got.keySet -- m.keySet).take(3)}")
        for (k <- m.keySet) assertSameValue(s"$label.$o[$k]", m(k), got(k))
      case other => fail(s"$label.$o kind mismatch: $other")
    }
  }

  test("empty input arrays agree with the local backend") {
    val src = """var s: double = 0.0; for v in V do s += v;
                |var C: map[string,long] = map(); for w in W do C[w] += 1;""".stripMargin
    val sigs: Map[String, Sig] = Map("V" -> ArraySig(1), "W" -> ArraySig(1))
    val empty = ArrayD(Map.empty, 1)
    assertAgree("empty", Diablo.compile(src, sigs), Map("V" -> empty, "W" -> empty),
      List("s", "C"))
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
