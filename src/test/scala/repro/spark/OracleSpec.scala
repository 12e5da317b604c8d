package repro.spark

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.programs.Benchmarks
import repro.spark.SparkTestUtil._

/** DuckDB oracle checks: DIABLO-generated Spark results must equal the
  * corresponding SQL over the same inputs. This catches wrong translations
  * and broken operators, not just "it ran".
  */
class OracleSpec extends SparkSpec {

  import spark.implicits._

  // flat views of the array inputs for DuckDB
  private def flatDoubles(scale: Int, seed: Long): DataFrame =
    arrToDF("V", Benchmarks.conditionalSum.data(scale, seed)).select(col("v").cast("double"))

  private def arrToDF(name: String, data: Map[String, repro.local.LocalBackend.Data]) =
    arrayDF(spark, data(name).asInstanceOf[repro.local.LocalBackend.ArrayD])

  test("oracle: conditional sum") {
    val p = Benchmarks.conditionalSum
    val st = runDiablo(spark, p, 300, 5)
    val got = Seq(outScalar(st, "sum").asInstanceOf[Double]).toDF("s")
    val in = flatDoubles(300, 5)
    Oracle.assertEquivalent(got,
      "select coalesce(sum(cast(v as double)), 0.0) as s from V where cast(v as double) < 100.0",
      "V" -> in)
  }

  test("oracle: count and average") {
    val p = Benchmarks.average
    val st = runDiablo(spark, p, 250, 6)
    val got = Seq((outScalar(st, "cnt").asInstanceOf[Long],
                   outScalar(st, "avg").asInstanceOf[Double])).toDF("c", "a")
    val in = arrToDF("V", p.data(250, 6)).select(col("v").cast("double"))
    Oracle.assertEquivalent(got,
      "select count(*) as c, avg(cast(v as double)) as a from V",
      "V" -> in)
  }

  test("oracle: word count") {
    val p = Benchmarks.wordCount
    val st = runDiablo(spark, p, 400, 7)
    val got = outDF(st, "C").select(col("k1").as("w"), col("v").cast("long").as("n"))
    val in = arrToDF("W", p.data(400, 7)).select(col("v").as("w"))
    Oracle.assertEquivalent(got,
      "select w, count(*) as n from W group by w",
      "W" -> in)
  }

  test("oracle: group-by sum") {
    val p = Benchmarks.groupBy
    val st = runDiablo(spark, p, 300, 8)
    val got = outDF(st, "C").select(col("k1").cast("long").as("k"),
                                    col("v").cast("double").as("s"))
    val in = arrToDF("V", p.data(300, 8))
      .select(col("v").getField("K").as("k"), col("v").getField("A").as("a"))
    Oracle.assertEquivalent(got,
      "select cast(k as bigint) as k, sum(cast(a as double)) as s from V group by k",
      "V" -> in)
  }

  test("oracle: histogram (red channel)") {
    val p = Benchmarks.histogram
    val st = runDiablo(spark, p, 300, 9)
    val got = outDF(st, "R").select(col("k1").cast("long").as("c"),
                                    col("v").cast("long").as("n"))
    val in = arrToDF("P", p.data(300, 9)).select(col("v").getField("red").as("c"))
    Oracle.assertEquivalent(got,
      "select cast(c as bigint) as c, count(*) as n from P group by c",
      "P" -> in)
  }

  test("oracle: matrix addition") {
    val p = Benchmarks.matrixAddition
    val st = runDiablo(spark, p, 7, 10)
    val got = outDF(st, "R").select(col("k1").cast("long").as("i"),
      col("k2").cast("long").as("j"), col("v").cast("double").as("s"))
    val data = p.data(7, 10)
    Oracle.assertEquivalent(got,
      """select cast(m.k1 as bigint) as i, cast(m.k2 as bigint) as j,
        |       cast(m.v as double) + cast(n.v as double) as s
        |from M m join N n on m.k1 = n.k1 and m.k2 = n.k2""".stripMargin,
      "M" -> arrToDF("M", data), "N" -> arrToDF("N", data))
  }

  test("oracle: matrix multiplication") {
    val p = Benchmarks.matrixMultiplication
    val st = runDiablo(spark, p, 6, 11)
    val got = outDF(st, "R").select(col("k1").cast("long").as("i"),
      col("k2").cast("long").as("j"), col("v").cast("double").as("s"))
    val data = p.data(6, 11)
    Oracle.assertEquivalent(got,
      """select cast(m.k1 as bigint) as i, cast(n.k2 as bigint) as j,
        |       sum(cast(m.v as double) * cast(n.v as double)) as s
        |from M m join N n on m.k2 = n.k1
        |group by m.k1, n.k2""".stripMargin,
      "M" -> arrToDF("M", data), "N" -> arrToDF("N", data))
  }

  test("oracle: one PageRank step") {
    val p = Benchmarks.pageRank
    val nv = 40
    val st = runDiablo(spark, p, nv, 12)
    val got = outDF(st, "P2").select(col("k1").cast("long").as("i"),
                                     col("v").cast("double").as("r"))
    val data = p.data(nv, 12)
    val e = arrToDF("E", data)
      .select(col("v").getField("src").as("src"), col("v").getField("dst").as("dst"))
    val pr = arrToDF("P", data).select(col("k1").as("i"), col("v").as("r"))
    Oracle.assertEquivalent(got,
      s"""select cast(e.dst as bigint) as i,
         |       0.15/$nv + 0.85*sum(cast(p.r as double) / c.cnt) as r
         |from E e
         |join P p on p.i = e.src
         |join (select src, cast(count(*) as double) as cnt from E group by src) c
         |  on c.src = e.src
         |group by e.dst""".stripMargin,
      "E" -> e, "P" -> pr)
  }

  test("oracle: linear regression slope/intercept") {
    val p = Benchmarks.linearRegression
    val st = runDiablo(spark, p, 200, 13)
    val got = Seq((outScalar(st, "slope").asInstanceOf[Double],
                   outScalar(st, "intercept").asInstanceOf[Double])).toDF("sl", "ic")
    val in = arrToDF("P", p.data(200, 13))
      .select(col("v").getField("x").as("x"), col("v").getField("y").as("y"))
    Oracle.assertEquivalent(got,
      """select covar_pop(cast(y as double), cast(x as double)) / var_pop(cast(x as double)) as sl,
        |       avg(cast(y as double)) - covar_pop(cast(y as double), cast(x as double))
        |         / var_pop(cast(x as double)) * avg(cast(x as double)) as ic
        |from P""".stripMargin,
      "P" -> in)
  }
}
