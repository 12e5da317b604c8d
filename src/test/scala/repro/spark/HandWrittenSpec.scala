package repro.spark

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.handwritten.HandWritten
import repro.local.LocalBackend.{ArrayD, Rec}
import repro.programs.Benchmarks
import repro.spark.SparkBackend._
import repro.spark.SparkTestUtil._

/** The hand-written Spark baselines (Figure 3) must produce the same
  * results as the DIABLO-translated programs — they are the comparison
  * points of the performance evaluation, so they must agree on semantics.
  */
class HandWrittenSpec extends SparkSpec {

  private def df(p: Benchmarks.ProgramSpec, name: String, scale: Int, seed: Long) =
    arrayDF(spark, p.data(scale, seed)(name).asInstanceOf[ArrayD])

  private def approx(a: Double, b: Double, name: String): Unit =
    assert(math.abs(a - b) <= 1e-6 * (1.0 + math.abs(a)), s"$name: $a vs $b")

  private def mapOf(dfr: org.apache.spark.sql.DataFrame, ka: Int) =
    dfToArray(dfr, ka).m

  test("conditional sum agrees") {
    val p = Benchmarks.conditionalSum
    val st = runDiablo(spark, p, 300, 21)
    approx(outScalar(st, "sum").asInstanceOf[Double],
      HandWritten.conditionalSum(df(p, "V", 300, 21)), "condsum")
  }

  test("equal agrees (mixed and all-equal datasets)") {
    val p = Benchmarks.equal
    val st = runDiablo(spark, p, 50, 23)
    assert(outScalar(st, "eq") == HandWritten.equal(df(p, "W", 50, 23), "key7"))
    // all-equal dataset
    val eqArr = repro.programs.BenchData.equalStrings(40)
    val code = repro.core.Diablo.compile(p.source, p.sigs)
    val st2 = SparkBackend.run(code, fromLocal(spark, Map(
      "W" -> eqArr, "w0" -> repro.local.LocalBackend.ScalarD("key7"))), spark)
    assert(outScalar(st2, "eq") == true)
    assert(HandWritten.equal(arrayDF(spark, eqArr), "key7"))
  }

  test("equal frequency agrees") {
    val p = Benchmarks.equalFrequency
    val st = runDiablo(spark, p, 150, 24)
    assert(outScalar(st, "eqf") ==
      HandWritten.equalFrequency(df(p, "W", 150, 24)))
  }

  test("string match agrees") {
    val p = Benchmarks.stringMatch
    val st = runDiablo(spark, p, 3000, 25)
    val (f1, f2, f3) = HandWritten.stringMatch(df(p, "W", 3000, 25))
    assert(outScalar(st, "f1") == f1)
    assert(outScalar(st, "f2") == f2)
    assert(outScalar(st, "f3") == f3)
  }

  test("word count agrees") {
    val p = Benchmarks.wordCount
    val st = runDiablo(spark, p, 400, 26)
    val got = mapOf(outDF(st, "C"), 1)
    val hw = mapOf(HandWritten.wordCount(df(p, "W", 400, 26)), 1)
    assert(got == hw)
  }

  test("histogram agrees on all channels") {
    val p = Benchmarks.histogram
    val st = runDiablo(spark, p, 250, 27)
    val in = df(p, "P", 250, 27)
    for ((out, ch) <- List(("R", "red"), ("G", "green"), ("B", "blue"))) {
      assert(mapOf(outDF(st, out), 1) == mapOf(HandWritten.histogram(in, ch), 1), ch)
    }
  }

  test("linear regression agrees") {
    val p = Benchmarks.linearRegression
    val st = runDiablo(spark, p, 300, 28)
    val (slope, intercept) = HandWritten.linearRegression(df(p, "P", 300, 28))
    approx(outScalar(st, "slope").asInstanceOf[Double], slope, "slope")
    approx(outScalar(st, "intercept").asInstanceOf[Double], intercept, "intercept")
  }

  test("group-by agrees") {
    val p = Benchmarks.groupBy
    val st = runDiablo(spark, p, 300, 29)
    val got = mapOf(outDF(st, "C"), 1)
    val hw = mapOf(HandWritten.groupBy(df(p, "V", 300, 29)), 1)
    assert(got.keySet == hw.keySet)
    for (k <- got.keySet)
      approx(got(k).asInstanceOf[Double], hw(k).asInstanceOf[Double], s"C$k")
  }

  test("matrix addition agrees") {
    val p = Benchmarks.matrixAddition
    val st = runDiablo(spark, p, 8, 30)
    val got = mapOf(outDF(st, "R"), 2)
    val hw = mapOf(HandWritten.matrixAddition(
      df(p, "M", 8, 30), df(p, "N", 8, 30)), 2)
    assert(got.keySet == hw.keySet)
    for (k <- got.keySet)
      approx(got(k).asInstanceOf[Double], hw(k).asInstanceOf[Double], s"R$k")
  }

  test("matrix multiplication agrees") {
    val p = Benchmarks.matrixMultiplication
    val st = runDiablo(spark, p, 7, 31)
    val got = mapOf(outDF(st, "R"), 2)
    val hw = mapOf(HandWritten.matrixMultiplication(
      df(p, "M", 7, 31), df(p, "N", 7, 31)), 2)
    assert(got.keySet == hw.keySet)
    for (k <- got.keySet)
      approx(got(k).asInstanceOf[Double], hw(k).asInstanceOf[Double], s"R$k")
  }

  test("pagerank agrees") {
    val p = Benchmarks.pageRank
    val nv = 50
    val st = runDiablo(spark, p, nv, 32)
    val got = mapOf(outDF(st, "P2"), 1)
    val hw = mapOf(HandWritten.pageRank(
      df(p, "E", nv, 32), df(p, "P", nv, 32), nv), 1)
    assert(got.keySet == hw.keySet)
    for (k <- got.keySet)
      approx(got(k).asInstanceOf[Double], hw(k).asInstanceOf[Double], s"P2$k")
  }

  test("kmeans agrees") {
    val p = Benchmarks.kMeans
    val st = runDiablo(spark, p, 400, 33)
    val got = mapOf(outDF(st, "C2"), 1)
    val data = p.data(400, 33)
    val centroids = data("C").asInstanceOf[ArrayD].m.toArray.map {
      case (List(k: Long), Rec(fs)) =>
        (k, (fs(0)._2.asInstanceOf[Double], fs(1)._2.asInstanceOf[Double]))
      case other => fail(s"bad centroid $other")
    }
    val hw = HandWritten.kMeans(arrayDF(spark, data("P").asInstanceOf[ArrayD]), centroids)
    assert(got.keySet.map(_.head) == hw.keySet)
    for ((k, (hx, hy)) <- hw) {
      val Rec(fs) = got(List(k)): @unchecked
      approx(fs(0)._2.asInstanceOf[Double], hx, s"cx$k")
      approx(fs(1)._2.asInstanceOf[Double], hy, s"cy$k")
    }
  }

  test("matrix factorization agrees") {
    val p = Benchmarks.matrixFactorization
    val dim = 10
    val st = runDiablo(spark, p, dim, 34)
    val data = p.data(dim, 34)
    val (hp, hq) = HandWritten.matrixFactorization(
      arrayDF(spark, data("R").asInstanceOf[ArrayD]),
      arrayDF(spark, data("P").asInstanceOf[ArrayD]),
      arrayDF(spark, data("Q").asInstanceOf[ArrayD]))
    val gotP = mapOf(outDF(st, "P2"), 2); val hwP = mapOf(hp, 2)
    assert(gotP.keySet == hwP.keySet)
    for (k <- gotP.keySet)
      approx(gotP(k).asInstanceOf[Double], hwP(k).asInstanceOf[Double], s"P$k")
    val gotQ = mapOf(outDF(st, "Q2"), 2); val hwQ = mapOf(hq, 2)
    assert(gotQ.keySet == hwQ.keySet)
    for (k <- gotQ.keySet)
      approx(gotQ(k).asInstanceOf[Double], hwQ(k).asInstanceOf[Double], s"Q$k")
  }
}
