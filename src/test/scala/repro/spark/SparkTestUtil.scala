package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.Diablo
import repro.local.LocalBackend.ArrayD
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
}
