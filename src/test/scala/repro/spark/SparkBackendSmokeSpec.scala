package repro.spark

import repro.SparkSpec
import repro.core.Diablo
import org.apache.spark.repro.ListenerBus
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.plans.logical.Join
import org.apache.spark.sql.execution.{QueryExecution, SparkPlan}
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.joins.BaseJoinExec
import org.apache.spark.sql.util.QueryExecutionListener
import repro.core.Comprehension._
import repro.core.Translate.{ArraySig, ScalarSig, Sig, TAssign, TInit, TStmt, TWhileS}
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

  test("a rule-16 update over an empty input leaves the array empty on every backend") {
    for (op <- List("+=", "min=")) {
      // no v is negative: the constant-key group-by has no input
      val (code, data) = overV(
        s"var C: vector[double] = vector(); for v in V do if (v < 0.0) C[0] $op v;",
        1.0, 2.0, 3.0, 4.0, 5.0)
      val TAssign(_, c, true) = code.last: @unchecked
      assert(c.quals.contains(QGroup(Nil, Nil)), op)
      for (par <- List(false, true))
        assert(LocalBackend.run(code, data, par)("C") == ArrayD(Map.empty, 1), s"$op, par = $par")
      assertAgree(op, code, data, List("C"))
    }
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

  test("a read shifted by one index gives the loop's values on every backend") {
    import SparkBackendSmokeSpec._
    for ((src, out, expected) <- shiftedReads) {
      val code = Diablo.compile(src, shiftedSigs)
      for (par <- List(false, true))
        assert(LocalBackend.run(code, shiftedData, par)(out) == expected, s"$src, par = $par")
      assertAgree(src, code, shiftedData, List(out))
    }
  }

  /** `src` compiled for an input vector V, and V holding `vs`. */
  private def overV(src: String, vs: Any*): (List[TStmt], Map[String, Data]) =
    (Diablo.compile(src, Map("V" -> ArraySig(1))),
     Map("V" -> ArrayD(vs.zipWithIndex.map { case (v, i) => List[Any](i.toLong) -> v }.toMap, 1)))

  private def assertRaisesOnSpark(code: List[TStmt], data: Map[String, Data],
                                  error: String): Unit = {
    val e = intercept[Exception](
      SparkBackend.run(code, SparkBackend.fromLocal(spark, data), spark))
    assert(Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
      .exists(x => String.valueOf(x.getMessage).contains(error)), e)
  }

  test("long overflow raises on both backends") {
    for ((src, v) <- List(
        ("var s: long = 0; for v in V do s += v * v;", 1L << 40),
        ("var s: long = 0; for v in V do s += abs(v);", Long.MinValue))) {
      val (code, data) = overV(src, v)
      intercept[ArithmeticException](LocalBackend.run(code, data))
      assertRaisesOnSpark(code, data, "ARITHMETIC_OVERFLOW")
    }
  }

  test("division by zero raises on both backends") {
    for ((src, v, error) <- List(
        ("var s: double = 0.0; for v in V do s += v / 0.0;", 2.0, "DIVIDE_BY_ZERO"),
        ("var s: long = 0; for v in V do s += v % 0;", 2L, "REMAINDER_BY_ZERO"))) {
      val (code, data) = overV(src, v)
      assert(intercept[ArithmeticException](LocalBackend.run(code, data))
        .getMessage.contains(error))
      assertRaisesOnSpark(code, data, error)
    }
  }

  test("log of zero and of a negative number gives Java's values on both backends") {
    for ((x, expected) <- List(0.0 -> Double.NegativeInfinity, -1.0 -> Double.NaN)) {
      val (code, data) = overV("var s: double = 0.0; for v in V do s += log(v);", 1.0, x)
      val ScalarD(local) = LocalBackend.run(code, data)("s"): @unchecked
      val SparkBackend.SScalar(onSpark) =
        SparkBackend.run(code, SparkBackend.fromLocal(spark, data), spark)("s"): @unchecked
      // compare, not ==: NaN is not == NaN
      for (v <- List(local, onSpark))
        assert(java.lang.Double.compare(v.asInstanceOf[Double], expected) == 0,
          s"log($x): local $local, Spark $onSpark")
      assertAgree(s"log($x)", code, data, List("s"))
    }
  }

  // keys 5..14, 5 and 12 twice: C[0..4] are not updated, C[10..14] are new
  private val kValues = (5L to 14L).toList ++ List(5L, 12L)
  private val kData =
    Map("K" -> ArrayD(kValues.zipWithIndex.map { case (v, i) => List[Any](i.toLong) -> v }.toMap, 1))
  private def selfUpdate(body: String): List[TStmt] = Diablo.compile(
    s"""var C: vector[double] = vector(); var k: long = 0;
       |for i = 0, 9 do C[i] := 10.0;
       |$body""".stripMargin, Map("K" -> ArraySig(1)))

  test("a self-update keeps the keys it does not update and defaults the new ones") {
    val counts = kValues.groupBy(identity).map { case (k, vs) => k -> vs.length }
    for (op <- List("+=", "min=", "*=")) {
      val code = selfUpdate(s"for v in K do C[v] $op v * 0.5;")
      val expected = (0L to 14L).map { k =>
        val (old, x, n) = (if (k < 10) Some(10.0) else None, k * 0.5, counts.getOrElse(k, 0))
        List[Any](k) -> (op match {
          case "+="   => old.getOrElse(0.0) + n * x
          case "*="   => old.getOrElse(1.0) * math.pow(x, n)
          case "min=" => if (n == 0) old.get else math.min(old.getOrElse(x), x)
        })
      }.toMap
      assert(LocalBackend.run(code, kData)("C") == ArrayD(expected, 1), op)
      assertAgree(op, code, kData, List("C"))
    }
  }

  test("a self-update inside a while body agrees with the local backend") {
    val code = selfUpdate("while (k < 3) { k += 1; for v in K do C[v] += v * 0.5 * k; };")
    val local = LocalBackend.run(code, kData)
    assert(local("C").asInstanceOf[ArrayD].m(List(5L)) == 10.0 + 2 * 2.5 * (1 + 2 + 3))
    assertAgree("while", code, kData, List("C", "k"))
  }

  // C[0..9] = 10.0, then C[5..14] = 0.0 … 9.0: a merge into an existing
  // array at a computed key that is not a self-update
  private val shiftedMerge = Diablo.compile(
    """var C: vector[double] = vector();
      |for i = 0, 9 do C[i] := 10.0;
      |for i = 0, 9 do C[i+5] := i * 1.0;""".stripMargin, Map.empty)

  test("a merge at a computed key keeps the old keys it does not update") {
    val expected = ArrayD((0L to 14L).map(k =>
      List[Any](k) -> (if (k < 5) 10.0 else (k - 5) * 1.0)).toMap, 1)
    for (par <- List(false, true))
      assert(LocalBackend.run(shiftedMerge, Map.empty, par)("C") == expected, s"par = $par")
    assertAgree("C[i+5]", shiftedMerge, Map.empty, List("C"))
  }

  // V[0..4] = 1.0, then V[i] += W[i]: rule 17 drops the update's group-by,
  // so its lookup of V's old value follows steps that precede no group-by
  private val uniqueKeyUpdate = Diablo.compile(
    """var V: vector[double] = vector();
      |for i = 0, 4 do V[i] := 1.0;
      |for i = 0, 4 do V[i] += W[i];""".stripMargin, Map("W" -> ArraySig(1)))
  private val wData =
    Map("W" -> ArrayD((0 until 5).map(i => List[Any](i.toLong) -> i * 1.0).toMap, 1))

  test("an update whose group-by rule 17 drops adds to the old values") {
    val expected = ArrayD((0 until 5).map(i => List[Any](i.toLong) -> (1.0 + i)).toMap, 1)
    for (par <- List(false, true))
      assert(LocalBackend.run(uniqueKeyUpdate, wData, par)("V") == expected, s"par = $par")
    assertAgree("V[i] += W[i]", uniqueKeyUpdate, wData, List("V"))
  }

  test("an update that reads the old value of another array is rejected on both backends") {
    // C := C <| { (k, w + +/v) | (i,v) <- V, group by k : i, w <- lookup D[k] }
    val head = CTup(List(CVar("k"), CBin("+", CVar("w"), CReduce(MSum, CVar("v")))))
    val code = List(TInit("C", 1), TAssign("C", Comp(head, List(Gen(List("i", "v"), CArr("V")),
      QGroup(List("k"), List(CVar("i"))), QLookup("w", "D", List("k"), DZero))), isArray = true))
    val vec = ArrayD(Map(List[Any](0L) -> 1.0), 1)
    val data = Map("V" -> vec, "D" -> vec)
    val error = "the update of C reads the old value of D"
    assert(intercept[IllegalArgumentException](LocalBackend.run(code, data)).getMessage == error)
    assertRaisesOnSpark(code, data, error)
  }

  /** Join nodes in the optimized logical plan of the last statement of
    * `code`, an array assignment, after the others ran on Spark.
    */
  private def mergeJoins(code: List[TStmt], data: Map[String, Data]): Int = {
    val TAssign(target, c, true) = code.last: @unchecked
    val state = SparkBackend.run(code.init, SparkBackend.fromLocal(spark, data), spark)
    val SparkBackend.SArr(old, ka) = state(target): @unchecked
    val df = new SparkBackend.Compiler(spark, state).merge(c, old, ka).get
    df.queryExecution.optimizedPlan.collect { case j: Join => j }.length
  }

  test("every `◁` is one join with its target") {
    val kMeans = Benchmarks.byName("KMeans")
    val near = Diablo.compile(kMeans.source, kMeans.sigs).take(7) // up to near's update
    val matMul = Benchmarks.byName("Matrix Multiplication")
    for ((label, code, data, joins) <- List(
        ("C", selfUpdate("for v in K do C[v] += 1.0;"), kData, 1),  // the merge
        ("C[i+5]", shiftedMerge, Map.empty[String, Data], 1),       // the merge
        ("V[i] += W[i]", uniqueKeyUpdate, wData, 1),                 // the merge
        ("KMeans near", near, kMeans.data(20, 42), 2),               // P × C, the merge
        ("Matrix Multiplication R", Diablo.compile(matMul.source, matMul.sigs),
          matMul.data(3, 42), 2))) {                                 // M ⋈ N, the merge
      assert(mergeJoins(code, data) == joins, label)
      assert(mergeJoins(code, data) == joins, s"$label, again")
    }
  }

  private object AdaptivePlans extends AdaptiveSparkPlanHelper

  /** Join operators, by name, in the executed adaptive plans of the
    * queries `body` runs (a Spark run forces every array it assigns).
    */
  private def joinOperators(body: => Any): Map[String, Int] = {
    val plans = collection.mutable.Buffer.empty[SparkPlan]
    val listener = new QueryExecutionListener {
      def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit =
        plans.synchronized(plans += qe.executedPlan)
      def onFailure(funcName: String, qe: QueryExecution, e: Exception): Unit = ()
    }
    spark.listenerManager.register(listener)
    try { body; ListenerBus.drain(spark.sparkContext) }
    finally spark.listenerManager.unregister(listener)
    plans.toList.flatMap(p => AdaptivePlans.collect(p) { case j: BaseJoinExec => j.nodeName })
      .groupBy(identity).map { case (n, js) => n -> js.length }
  }

  private def runSpark(code: List[TStmt], state: Map[String, SparkBackend.SValue]) =
    SparkBackend.run(code, state, spark)

  private val matAdd = Benchmarks.byName("Matrix Addition")

  test("Matrix Addition broadcasts one side of its join") {
    val code = Diablo.compile(matAdd.source, matAdd.sigs)
    val state = SparkBackend.fromLocal(spark, matAdd.data(6, 42))
    assert(joinOperators(runSpark(code, state)) == Map("BroadcastHashJoin" -> 1))
  }

  test("KMeans near broadcasts the centroids and merges with a sort-merge join") {
    val kMeans = Benchmarks.byName("KMeans")
    val near = Diablo.compile(kMeans.source, kMeans.sigs).take(7) // up to near's update
    val state = runSpark(near.init, SparkBackend.fromLocal(spark, kMeans.data(20, 42)))
    assert(joinOperators(runSpark(List(near.last), state)) ==
      Map("BroadcastNestedLoopJoin" -> 1, "SortMergeJoin" -> 1))
  }

  test("an input of unknown size is shuffled, a cached one is broadcast") {
    val code = Diablo.compile(matAdd.source, matAdd.sigs)
    val data = matAdd.data(6, 42)
    def inputs(df: ArrayD => DataFrame) = data.map {
      case (n, a: ArrayD) => n -> SparkBackend.SArr(Some(df(a)), a.keyArity)
      case (n, ScalarD(v)) => n -> SparkBackend.SScalar(v)
    }
    // an uncached RDD has no size statistics
    val uncached = inputs(SparkBackend.arrayToDF(spark, _))
    assert(joinOperators(runSpark(code, uncached)) == Map("SortMergeJoin" -> 1))
    // a cached DataFrame's statistics are exact once it is materialized
    val cached = inputs { a =>
      val df = SparkBackend.arrayToDF(spark, a).cache(); df.count(); df }
    try assert(joinOperators(runSpark(code, cached)) == Map("BroadcastHashJoin" -> 1))
    finally cached.values.foreach {
      case SparkBackend.SArr(Some(df), _) => df.unpersist(); case _ => () }
  }

  test("a program run one statement at a time chooses the joins of a whole run") {
    for ((name, scale) <- List(("KMeans", 20), ("Matrix Multiplication", 4), ("PageRank", 30))) {
      val p = Benchmarks.byName(name)
      val code = Diablo.compile(p.source, p.sigs)
      val init = SparkBackend.fromLocal(spark, p.data(scale, 42))
      val whole = joinOperators(runSpark(code, init))
      val stepwise = joinOperators(code.foldLeft(init)((st, s) => runSpark(List(s), st)))
      assert(whole == stepwise, name)
      assert(whole.contains("BroadcastHashJoin"), name)
    }
  }

  test("fromLocal and merge record row counts; a statically empty assignment keeps them") {
    val v = ArrayD((0 until 3).map(i => List[Any](i.toLong) -> 1.0).toMap, 1)
    val bridged = SparkBackend.fromLocal(spark, Map("V" -> v, "W" -> ArrayD(Map.empty, 1)))
    assert(bridged("V").asInstanceOf[SparkBackend.SArr].rows == Some(3L))
    assert(bridged("W") == SparkBackend.SArr(None, 1))
    val code = Diablo.compile(
      """var C: vector[double] = vector(); var D: vector[double] = vector();
        |for i = 0, 9 do C[i] := 10.0;
        |for i = 0, 4 do C[i] := D[i];""".stripMargin, Map.empty)
    val filled = runSpark(code.init, Map.empty)
    val c = filled("C").asInstanceOf[SparkBackend.SArr]
    assert(c.rows == Some(10L) && c.df.get.count() == 10L)
    // D is never assigned, so the last assignment is statically empty
    assert(runSpark(List(code.last), filled)("C") eq c)
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

object SparkBackendSmokeSpec {

  /** Loops that read W at i+1 and at i, with W[i] = 10i+1 for i = 0..5 and
    * n = 5: each source, its output and the output's value.
    */
  val shiftedReads: List[(String, String, Data)] = {
    def from(i0: Int, vs: Double*): Data =
      ArrayD(vs.zipWithIndex.map { case (v, i) => List[Any]((i0 + i).toLong) -> v }.toMap, 1)
    List(
      ("for i = 0, n-1 do V[i] += W[i+1] * W[i];", "V", from(0, 11, 231, 651, 1271, 2091)),
      ("var s: double = 0.0; for i = 0, n-1 do s += W[i+1] * W[i];", "s", ScalarD(4255.0)),
      ("for i = 0, n-1 do if (W[i+1] > 15.0) V[i] += W[i];", "V", from(1, 11, 21, 31, 41)),
      ("for i = 0, n-1 do V[i] := W[i+1] + W[i];", "V", from(0, 12, 32, 52, 72, 92)))
  }
  val shiftedSigs: Map[String, Sig] =
    Map("V" -> ArraySig(1), "W" -> ArraySig(1), "n" -> ScalarSig)
  val shiftedData: Map[String, Data] = Map("V" -> ArrayD(Map.empty, 1), "n" -> ScalarD(5L),
    "W" -> ArrayD((0 to 5).map(i => List[Any](i.toLong) -> (10.0 * i + 1)).toMap, 1))
}
