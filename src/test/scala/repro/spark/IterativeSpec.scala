package repro.spark

import repro.SparkSpec
import repro.core.Diablo
import repro.core.Translate._
import repro.local.LocalBackend
import repro.local.LocalBackend.{ArrayD, Data, ScalarD}
import repro.spark.SparkBackend._
import repro.spark.SparkTestUtil._

/** Sequential while-loops driving distributed bodies (rule 15f): iterative
  * programs must agree between the Spark and local backends, and lineage
  * must not blow up across iterations (localCheckpoint per assignment).
  */
class IterativeSpec extends SparkSpec {

  private def vec(vs: (Long, Double)*): ArrayD =
    ArrayD(vs.map { case (k, v) => List[Any](k) -> (v: Any) }.toMap, 1)

  private def runBoth(src: String, sigs: Map[String, Sig],
                      data: Map[String, Data]) = {
    val code = Diablo.compile(src, sigs)
    val local = LocalBackend.run(code, data)
    val sp = SparkBackend.run(code, fromLocal(spark, data), spark)
    (local, sp)
  }

  test("while with a distributed body agrees across backends") {
    val src =
      """var k: long = 0;
        |while (k < 4) {
        |  k += 1;
        |  for i = 0, 2 do V[i] += 1.0;
        |};
        |""".stripMargin
    val (local, sp) = runBoth(src, Map("V" -> ArraySig(1)),
      Map("V" -> vec(0L -> 0.0, 1L -> 10.0, 2L -> 20.0)))
    assert(outScalar(sp, "k") == 4L)
    val lm = local("V").asInstanceOf[ArrayD].m
    val sm = dfToArray(outDF(sp, "V"), 1).m
    assert(lm == sm)
    assert(sm(List(0L)) == 4.0)
  }

  test("ten-iteration PageRank converges identically on both backends") {
    val src =
      """var C: vector[long] = vector();
        |for e in E do C[e.src] += 1;
        |var k: long = 0;
        |while (k < 10) {
        |  k += 1;
        |  var OUT: vector[double] = vector();
        |  for e in E do OUT[e.dst] += P[e.src]/C[e.src];
        |  for i = 0, n-1 do P[i] := 0.15/n + 0.85*OUT[i];
        |};
        |""".stripMargin
    val nv = 20
    val data: Map[String, Data] = Map(
      "E" -> repro.programs.BenchData.edges(nv, nv * 5, 3),
      "P" -> repro.programs.BenchData.ranks(nv),
      "n" -> ScalarD(nv.toLong))
    val sigs: Map[String, Sig] =
      Map("E" -> ArraySig(1), "P" -> ArraySig(1), "n" -> ScalarSig)
    val code = Diablo.compile(src, sigs)
    val local = LocalBackend.run(code, data)
    val sp = SparkBackend.run(code, fromLocal(spark, data), spark)
    val lm = local("P").asInstanceOf[ArrayD].m
    val sm = dfToArray(outDF(sp, "P"), 1).m
    assert(lm.keySet == sm.keySet)
    for (key <- lm.keySet) {
      val (a, b) = (lm(key).asInstanceOf[Double], sm(key).asInstanceOf[Double])
      assert(math.abs(a - b) < 1e-9, s"P[$key]: $a vs $b")
    }
  }

  test("while condition can read results of distributed aggregation") {
    // grow s by the (distributed) sum of V until it exceeds a threshold
    val src =
      """var s: double = 0.0;
        |var rounds: long = 0;
        |while (s < 10.0) {
        |  rounds += 1;
        |  for v in V do s += v;
        |};
        |""".stripMargin
    val (local, sp) = runBoth(src, Map("V" -> ArraySig(1)),
      Map("V" -> vec(0L -> 1.0, 1L -> 2.0)))
    assert(outScalar(sp, "rounds") == 4L)
    assert(local("rounds").asInstanceOf[ScalarD].v == 4L)
  }
}
