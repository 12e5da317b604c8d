package repro.handwritten

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Hand-written Spark (DataFrame) counterparts of the benchmark programs —
  * the "hand-written" baseline of Figure 3, expressed over the same array
  * DataFrames the DIABLO backend uses (columns k1..kn, v).
  *
  * Each program is written the way a Spark expert would: single-pass
  * aggregations where possible, one join + reduce for matrix products and
  * PageRank, a broadcast centroid table for KMeans (the very optimization
  * the paper credits the hand-written version with).
  */
object HandWritten {

  /** V.filter(_ < 100).sum */
  def conditionalSum(v: DataFrame): Double =
    v.filter(col("v") < 100.0)
      .agg(coalesce(sum("v"), lit(0.0)))
      .head.getDouble(0)

  /** All values equal to w0. */
  def equal(w: DataFrame, w0: String): Boolean =
    w.agg(coalesce(min(col("v") === w0), lit(true))).head.getBoolean(0)

  /** Do all distinct strings occur equally often? */
  def equalFrequency(w: DataFrame): Boolean = {
    val freqs = w.groupBy("v").count().agg(min("count"), max("count")).head
    freqs.getLong(0) == freqs.getLong(1)
  }

  /** Does the dataset contain key1/key2/key3? */
  def stringMatch(w: DataFrame): (Boolean, Boolean, Boolean) = {
    val r = w.agg(
      coalesce(max(col("v") === "key1"), lit(false)),
      coalesce(max(col("v") === "key2"), lit(false)),
      coalesce(max(col("v") === "key3"), lit(false))).head
    (r.getBoolean(0), r.getBoolean(1), r.getBoolean(2))
  }

  /** word → count */
  def wordCount(w: DataFrame): DataFrame =
    w.groupBy(col("v").as("k1")).count().withColumnRenamed("count", "v")

  /** Histogram of one RGB channel (v is a struct with that field). */
  def histogram(p: DataFrame, channel: String): DataFrame =
    p.groupBy(col("v").getField(channel).as("k1")).count()
      .withColumnRenamed("count", "v")

  /** Least-squares slope and intercept over points (v struct with x, y). */
  def linearRegression(p: DataFrame): (Double, Double) = {
    val x = col("v").getField("x"); val y = col("v").getField("y")
    val r = p.agg(avg(x), avg(y), covar_pop(x, y), var_pop(x)).head
    val slope = r.getDouble(2) / r.getDouble(3)
    (slope, r.getDouble(1) - slope * r.getDouble(0))
  }

  /** groupBy K, sum A (v struct with K, A). */
  def groupBy(v: DataFrame): DataFrame =
    v.groupBy(col("v").getField("K").as("k1"))
      .agg(sum(col("v").getField("A")).as("v"))

  /** M + N by joining on both indexes. */
  def matrixAddition(m: DataFrame, n: DataFrame): DataFrame =
    m.withColumnRenamed("v", "_m")
      .join(n.withColumnRenamed("v", "_n"), Seq("k1", "k2"))
      .select(col("k1"), col("k2"), (col("_m") + col("_n")).as("v"))

  /** The paper's hand-written matrix multiplication: join on the shared
    * dimension, multiply, reduce by (i, j).
    */
  def matrixMultiplication(m: DataFrame, n: DataFrame): DataFrame =
    m.select(col("k1").as("i"), col("k2").as("kk"), col("v").as("_m"))
      .join(n.select(col("k1").as("kk"), col("k2").as("j"), col("v").as("_n")), Seq("kk"))
      .groupBy(col("i").as("k1"), col("j").as("k2"))
      .agg(sum(col("_m") * col("_n")).as("v"))

  /** One PageRank step: degree count, join edges with ranks, reduce by
    * destination, then apply the damping factor.
    */
  def pageRank(e: DataFrame, p: DataFrame, nVertices: Long,
               b: Double = 0.85): DataFrame = {
    val src = col("v").getField("src"); val dst = col("v").getField("dst")
    val deg = e.groupBy(src.as("s")).count()
    val contrib = e.select(src.as("s"), dst.as("d"))
      .join(p.select(col("k1").as("s"), col("v").as("rank")), Seq("s"))
      .join(deg, Seq("s"))
      .groupBy(col("d").as("k1"))
      .agg(sum(col("rank") / col("count")).as("c"))
    contrib.select(col("k1"), (lit((1 - b) / nVertices) + lit(b) * col("c")).as("v"))
  }

  /** One KMeans step with driver-collected (broadcast) centroids: the
    * shuffled data is one (centroid, partial-average) pair per centroid.
    */
  def kMeans(points: DataFrame, centroids: Array[(Long, (Double, Double))])
      : Map[Long, (Double, Double)] = {
    val spark = points.sparkSession
    import spark.implicits._
    val bc = spark.sparkContext.broadcast(centroids)
    points.select(col("v").getField("x").as("x"), col("v").getField("y").as("y"))
      .as[(Double, Double)]
      .rdd
      .map { case (x, y) =>
        val best = bc.value.minBy { case (_, (cx, cy)) =>
          (x - cx) * (x - cx) + (y - cy) * (y - cy) }._1
        (best, (x, y, 1L))
      }
      .reduceByKey((a: (Double, Double, Long), b: (Double, Double, Long)) =>
        (a._1 + b._1, a._2 + b._2, a._3 + b._3))
      .map { case (k, (sx, sy, c)) => (k, (sx / c, sy / c)) }
      .collect().toMap
  }

  /** One matrix-factorization gradient step (appendix B's structure):
    * E = R - P×Q on R's support, then P/Q updates via joins with E.
    */
  def matrixFactorization(r: DataFrame, p: DataFrame, q: DataFrame,
                          a: Double = 0.002, b: Double = 0.02)
      : (DataFrame, DataFrame) = {
    val pq = matrixMultiplication(p, q)
    val err = r.withColumnRenamed("v", "_r")
      .join(pq.withColumnRenamed("v", "_pq"), Seq("k1", "k2"))
      .select(col("k1"), col("k2"), (col("_r") - col("_pq")).as("v"))
    // dP[i,k] = sum_j a*(2*E[i,j]*Q[k,j] - b*P[i,k])
    val dP = err.select(col("k1").as("i"), col("k2").as("j"), col("v").as("e"))
      .join(q.select(col("k1").as("kk"), col("k2").as("j"), col("v").as("qv")), Seq("j"))
      .join(p.select(col("k1").as("i"), col("k2").as("kk"), col("v").as("pv")), Seq("i", "kk"))
      .groupBy(col("i").as("k1"), col("kk").as("k2"))
      .agg(sum(lit(a) * (lit(2.0) * col("e") * col("qv") - lit(b) * col("pv"))).as("d"))
    val newP = p.join(dP, Seq("k1", "k2"), "left_outer")
      .select(col("k1"), col("k2"), (col("v") + coalesce(col("d"), lit(0.0))).as("v"))
    // dQ[k,j] = sum_i a*(2*E[i,j]*P[i,k] - b*Q[k,j])
    val dQ = err.select(col("k1").as("i"), col("k2").as("j"), col("v").as("e"))
      .join(p.select(col("k1").as("i"), col("k2").as("kk"), col("v").as("pv")), Seq("i"))
      .join(q.select(col("k1").as("kk"), col("k2").as("j"), col("v").as("qv")), Seq("kk", "j"))
      .groupBy(col("kk").as("k1"), col("j").as("k2"))
      .agg(sum(lit(a) * (lit(2.0) * col("e") * col("pv") - lit(b) * col("qv"))).as("d"))
    val newQ = q.join(dQ, Seq("k1", "k2"), "left_outer")
      .select(col("k1"), col("k2"), (col("v") + coalesce(col("d"), lit(0.0))).as("v"))
    (newP, newQ)
  }
}
