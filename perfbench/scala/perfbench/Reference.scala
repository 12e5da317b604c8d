package perfbench

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{coalesce, col, max, min}
import repro.handwritten.HandWritten
import repro.local.LocalBackend.Rec

/** Expected outputs, computed with the hand-written Spark programs
  * (`HandWritten.*`), which share no code with the compiler under test.
  * A scalar output is a value; an array output is a map from key list to
  * value, as the backends hold it.
  */
object Reference {

  type Outputs = Map[String, Any]

  /** Inputs of one program: cached DataFrames for arrays, values for
    * scalars.
    */
  final case class Inputs(dfs: Map[String, DataFrame], scalars: Map[String, Any]) {
    def df(n: String): DataFrame = dfs(n)
    def long(n: String): Long = scalars(n).asInstanceOf[Long]
  }

  /** Collect a `k1..kn, v` DataFrame into a key-list map. */
  def collect(df: DataFrame, keyArity: Int): Map[List[Any], Any] =
    df.collect().iterator.map { r =>
      (0 until keyArity).toList.map(r.get) -> r.get(keyArity)
    }.toMap

  def expected(program: String, in: Inputs): Outputs = program match {
    case "Conditional Sum" => Map("sum" -> HandWritten.conditionalSum(in.df("V")))
    case "Equal" =>
      Map("eq" -> HandWritten.equal(in.df("W"), in.scalars("w0").asInstanceOf[String]))
    case "String Match" =>
      val (f1, f2, f3) = HandWritten.stringMatch(in.df("W"))
      Map("f1" -> f1, "f2" -> f2, "f3" -> f3)
    case "Word Count" => Map("C" -> collect(HandWritten.wordCount(in.df("W")), 1))
    case "Histogram" =>
      Map("R" -> "red", "G" -> "green", "B" -> "blue").map { case (out, channel) =>
        out -> collect(HandWritten.histogram(in.df("P"), channel), 1) }
    case "Linear Regression" =>
      val (slope, intercept) = HandWritten.linearRegression(in.df("P"))
      Map("slope" -> slope, "intercept" -> intercept)
    case "Group-By" => Map("C" -> collect(HandWritten.groupBy(in.df("V")), 1))
    case "Equal Frequency" =>
      val counts = HandWritten.wordCount(in.df("W")).agg(max("v"), min("v")).head
      Map("eqf" -> HandWritten.equalFrequency(in.df("W")),
        "mx" -> counts.getLong(0), "mn" -> counts.getLong(1))
    case "Matrix Addition" =>
      Map("R" -> collect(HandWritten.matrixAddition(in.df("M"), in.df("N")), 2))
    case "Matrix Multiplication" =>
      Map("R" -> collect(HandWritten.matrixMultiplication(in.df("M"), in.df("N")), 2))
    case "PageRank" =>
      Map("P2" -> collect(HandWritten.pageRank(in.df("E"), in.df("P"), in.long("n")), 1))
    case "KMeans" =>
      val centroids = in.df("C").collect().map { r =>
        val s = r.getStruct(1)
        (r.getLong(0), (s.getDouble(0), s.getDouble(1)))
      }
      Map("C2" -> HandWritten.kMeans(in.df("P"), centroids).map { case (k, (x, y)) =>
        List[Any](k) -> Rec(Vector("_1" -> x, "_2" -> y)) })
    case "Matrix Factorization" =>
      val (p, q) = HandWritten.matrixFactorization(in.df("R"), in.df("P"), in.df("Q"))
      Map("P2" -> collect(p, 2), "Q2" -> collect(q, 2))
    case "Iterative PageRank" =>
      // P[i] := … merges into P: vertices the step does not return keep
      // their previous rank (Fig. 2's ◁).
      var p = in.df("P")
      for (_ <- 1 to Workloads.iterativeRounds) {
        val step = HandWritten.pageRank(in.df("E"), p, in.long("n"))
          .withColumnRenamed("v", "_nv")
        p = p.join(step, Seq("k1"), "full_outer")
          .select(col("k1"), coalesce(col("_nv"), col("v")).as("v"))
          .localCheckpoint()
      }
      Map("P" -> collect(p, 1), "k" -> Workloads.iterativeRounds.toLong)
    case other => throw new IllegalArgumentException(s"no reference for $other")
  }

  /** Doubles within 1e-6 relative error (as in HandWrittenSpec); every
    * other value, key set and value type exactly.
    */
  def same(a: Any, b: Any): Boolean = (a, b) match {
    case (x: Double, y: Double) => math.abs(x - y) <= 1e-6 * (1.0 + math.abs(x))
    case (x: Rec, y: Rec) =>
      x.fields.length == y.fields.length &&
        x.fields.zip(y.fields).forall { case ((_, u), (_, v)) => same(u, v) }
    case (x: Map[_, _], y: Map[_, _]) =>
      val ym = y.asInstanceOf[Map[Any, Any]]
      x.size == y.size && x.forall { case (k, v) => ym.get(k).exists(same(v, _)) }
    case (null, null) => true
    case (null, _) | (_, null) => false
    case _ => a.getClass == b.getClass && a == b
  }

  /** The first output that differs from the reference, described. */
  def mismatch(expected: Outputs, actual: String => Option[Any]): Option[String] =
    expected.iterator.flatMap { case (name, want) =>
      actual(name) match {
        case None => Some(s"$name missing")
        case Some(got) if !same(want, got) => Some(s"$name: ${brief(got)} != ${brief(want)}")
        case _ => None
      }
    }.nextOption()

  private def brief(v: Any): String = v match {
    case m: Map[_, _] => s"${m.size} entries ${m.take(3).mkString(", ")}…"
    case other => s"$other"
  }
}
