package repro.spark

import repro.SparkSpec
import repro.core.Comprehension._
import repro.core.Diablo
import repro.core.Translate._
import repro.local.LocalBackend
import repro.local.LocalBackend.{ArrayD, Data, ScalarD}
import repro.spark.SparkBackend._
import repro.spark.SparkTestUtil._

/** Spark-side coverage of every incremental-update monoid, including the
  * ones no benchmark program uses (`*=`) and array-destination min/max.
  */
class SparkMonoidSpec extends SparkSpec {

  private def vec(vs: (Long, Any)*): ArrayD =
    ArrayD(vs.map { case (k, v) => List[Any](k) -> v }.toMap, 1)

  private def run(src: String, sigs: Map[String, Sig], data: Map[String, Data]) =
    SparkBackend.run(Diablo.compile(src, sigs), fromLocal(spark, data), spark)

  test("*= product aggregation on Spark") {
    val st = run("var p: double = 1.0; for v in V do p *= v;",
      Map("V" -> ArraySig(1)), Map("V" -> vec(0L -> 2.0, 1L -> 3.0, 2L -> 4.0)))
    assert(outScalar(st, "p") == 24.0)
  }

  test("*= over longs stays long on Spark") {
    val st = run("var p: long = 1; var C: map[long,long] = map(); " +
      "for v in V do { p *= v; C[v] *= 2; };",
      Map("V" -> ArraySig(1)), Map("V" -> vec(0L -> 2L, 1L -> 3L, 2L -> 4L, 3L -> 3L)))
    // compared by class too, since 72L == 72.0 holds in Scala
    assert(outScalar(st, "p").getClass == classOf[java.lang.Long])
    assert(outScalar(st, "p") == 72L)
    val c = dfToArray(outDF(st, "C"), 1).m
    assert(c.values.map(_.getClass).toSet == Set(classOf[java.lang.Long]))
    assert(c == Map(List(2L) -> 2L, List(3L) -> 4L, List(4L) -> 2L))
  }

  test("min and max of a long and a double are doubles on both backends") {
    val code = Diablo.compile(
      "var lo: double = 10.0; var hi: double = -1.0; var C: vector[double] = vector(); " +
      "for i = 0, 2 do C[i] := min(i, 1.5); for v in V do { lo min= v; hi max= v; };",
      Map("V" -> ArraySig(1)))
    val data = Map("V" -> vec(0L -> 0L, 1L -> 1L, 2L -> 2L, 3L -> 3L))
    val local = repro.local.LocalBackend.run(code, data)
    val st = SparkBackend.run(code, fromLocal(spark, data), spark)
    val c = Map(List(0L) -> 0.0, List(1L) -> 1.0, List(2L) -> 1.5)
    // compared by class too, since 0L == 0.0 holds in Scala
    for ((backend, lo, hi, cs) <- List(
        ("local", local("lo").asInstanceOf[ScalarD].v, local("hi").asInstanceOf[ScalarD].v,
          local("C").asInstanceOf[ArrayD].m),
        ("Spark", outScalar(st, "lo"), outScalar(st, "hi"), dfToArray(outDF(st, "C"), 1).m))) {
      assert(List(lo, hi).map(_.getClass) == List.fill(2)(classOf[java.lang.Double]), backend)
      assert((lo, hi) == ((0.0, 3.0)), backend)
      assert(cs.values.map(_.getClass).toSet == Set(classOf[java.lang.Double]), backend)
      assert(cs == c, backend)
    }
  }

  test("min(a, b) and min= compile to the same CBin and agree on all three backends") {
    val code = Diablo.compile(
      "var lo: double = 10.0; var C: vector[double] = vector(); " +
      "for i = 0, 3 do C[i] := min(V[i], 1.5); for v in V do lo min= v;",
      Map("V" -> ArraySig(1)))
    // C := C <| { (k, (v min 1.5)) | ... }, lo := { ($lo min min/v) | ... }
    assert(code.exists {
      case TAssign("C", Comp(CTup(List(_, CBin("min", _, CLit(1.5)))), _), true) => true
      case _ => false })
    assert(code.exists {
      case TAssign("lo", Comp(CBin("min", CState("lo"), CReduce(MMin, _)), _), false) => true
      case _ => false })
    val data = Map("V" -> vec(0L -> 3.0, 1L -> -1.0, 2L -> 2.0, 3L -> 0.5))
    val expected = Map("lo" -> ScalarD(-1.0), "C" -> vec(0L -> 1.5, 1L -> -1.0, 2L -> 1.5, 3L -> 0.5))
    for (par <- List(false, true))
      assert(expected.forall { case (n, v) => LocalBackend.run(code, data, par)(n) == v }, s"par = $par")
    assertAgree(spark, "min", code, data, List("lo", "C"))
  }

  test("scalar min=/max= on Spark") {
    val st = run(
      "var lo: double = 1.0e30; var hi: double = -1.0e30; " +
      "for v in V do { lo min= v; hi max= v; };",
      Map("V" -> ArraySig(1)), Map("V" -> vec(0L -> 5.0, 1L -> -2.0, 2L -> 9.0)))
    assert(outScalar(st, "lo") == -2.0)
    assert(outScalar(st, "hi") == 9.0)
  }

  test("array-destination min= with grouping on Spark") {
    // per-key minimum over (K, A) records
    val recs = List(
      (1L, 5.0), (1L, 2.0), (2L, 7.0), (2L, 9.0), (1L, 8.0)
    ).zipWithIndex.map { case ((k, a), i) =>
      List[Any](i.toLong) ->
        (repro.local.LocalBackend.Rec(Vector("K" -> k, "A" -> a)): Any)
    }.toMap
    val st = run(
      "var M: map[long,double] = map(); for v in V do M[v.K] min= v.A;",
      Map("V" -> ArraySig(1)), Map("V" -> ArrayD(recs, 1)))
    val m = dfToArray(outDF(st, "M"), 1).m
    assert(m == Map(List(1L) -> 2.0, List(2L) -> 7.0))
  }

  test("array-destination &&= / ||= on Spark") {
    val st = run(
      "var A: map[long,bool] = map(); var O: map[long,bool] = map(); " +
      "for v in V do { A[v.K] &&= v.A > 0.0; O[v.K] ||= v.A > 6.0; };",
      Map("V" -> ArraySig(1)),
      Map("V" -> ArrayD(List(
        (1L, 5.0), (1L, -2.0), (2L, 7.0)
      ).zipWithIndex.map { case ((k, a), i) =>
        List[Any](i.toLong) ->
          (repro.local.LocalBackend.Rec(Vector("K" -> k, "A" -> a)): Any)
      }.toMap, 1)))
    assert(dfToArray(outDF(st, "A"), 1).m ==
      Map(List(1L) -> false, List(2L) -> true))
    assert(dfToArray(outDF(st, "O"), 1).m ==
      Map(List(1L) -> false, List(2L) -> true))
  }

  test("min= over tuples is argmin on Spark (struct ordering)") {
    val st = run(
      "var m: (double,long) = (1.0e30, 0); for i = 0, n-1 do m min= (V[i], i);",
      Map("V" -> ArraySig(1), "n" -> ScalarSig),
      Map("V" -> vec(0L -> 5.0, 1L -> 2.0, 2L -> 8.0), "n" -> ScalarD(3L)))
    val rec = outScalar(st, "m").asInstanceOf[repro.local.LocalBackend.Rec]
    assert(rec.fields == Vector("_1" -> 2.0, "_2" -> 1L))
  }
}
