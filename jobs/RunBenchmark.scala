package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.Diablo
import repro.programs.Benchmarks
import repro.spark.SparkBackend
import repro.spark.SparkBackend.{SArr, SScalar}

/** spark-submit entrypoint: run one benchmark program through DIABLO on
  * Spark and print its outputs (a sample for array outputs).
  *
  * usage: RunBenchmark <program-name> [scale] [seed]
  */
object RunBenchmark {
  def main(args: Array[String]): Unit = {
    require(args.nonEmpty,
      s"usage: RunBenchmark <name> [scale] [seed]; names: ${Benchmarks.all.map(_.name).mkString(", ")}")
    val p     = Benchmarks.byName(args(0))
    val scale = if (args.length > 1) args(1).toInt else 100
    val seed  = if (args.length > 2) args(2).toLong else 42L

    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(s"diablo-${p.name}")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()

    val code = Diablo.compile(p.source, p.sigs)
    val state = SparkBackend.fromLocal(spark, p.data(scale, seed))
    val result = SparkBackend.run(code, state, spark)
    for (o <- p.outputs) result(o) match {
      case SScalar(v)        => println(s"$o = $v")
      case SArr(Some(df), _) =>
        println(s"$o: ${df.count()} entries; sample:")
        df.show(10, truncate = false)
      case SArr(None, _)     => println(s"$o: (never assigned)")
    }
    spark.stop()
  }
}
