package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.scalatest.Assertions._
import repro.core.Diablo
import repro.core.Translate.TStmt
import repro.local.LocalBackend
import repro.local.LocalBackend.{ArrayD, Data, ScalarD}
import repro.programs.Benchmarks.ProgramSpec
import repro.spark.SparkBackend._

/** Shared helpers for Spark-side tests and benches. */
object SparkTestUtil {

  /** Compile and run a benchmark program on the Spark backend. */
  def runDiablo(spark: SparkSession, p: ProgramSpec, scale: Int, seed: Long = 42)
      : Map[String, SValue] = {
    val code = Diablo.compile(p.source, p.sigs)
    SparkBackend.run(code, fromLocal(spark, p.data(scale, seed)), spark)
  }

  /** A non-empty local array as a DataFrame (columns k1..kn, v). */
  def arrayDF(spark: SparkSession, a: ArrayD): DataFrame =
    outDF(fromLocal(spark, Map("a" -> a)), "a")

  def outDF(st: Map[String, SValue], name: String): DataFrame =
    st(name).asInstanceOf[SArr].df.getOrElse(
      throw new IllegalStateException(s"$name was never assigned"))

  def outScalar(st: Map[String, SValue], name: String): Any =
    st(name).asInstanceOf[SScalar].v

  def assertSameValue(name: String, a: Any, b: Any): Unit = (a, b) match {
    case (x: Double, y: Double) => // x - y is NaN for equal infinities
      assert(x == y || (x.isNaN && y.isNaN) || math.abs(x - y) <= 1e-6 * (1.0 + math.abs(x)),
        s"$name: $x != $y")
    case (x, y) => assert(x == y, name)
  }

  /** Run `code` on the sequential local backend and on Spark; every output
    * must agree (doubles to a relative 1e-6, or equal: the same infinity or
    * both NaN).
    */
  def assertAgree(spark: SparkSession, label: String, code: List[TStmt],
                  data: Map[String, Data], outputs: List[String]): Unit = {
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
}
