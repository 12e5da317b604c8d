package perfbench

import scala.collection.mutable

/** Samples, summary statistics and the JSON the benchmark prints. */
object Stats {
  def median(xs: Iterable[Double]): Double = {
    val s = xs.toVector.sorted
    require(s.nonEmpty, "median of no samples")
    if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  /** The `q` quantile, by the nearest-rank method. */
  def quantile(xs: Iterable[Double], q: Double): Double = {
    val s = xs.toVector.sorted
    require(s.nonEmpty, "quantile of no samples")
    s(math.min(s.length - 1, math.ceil(q * s.length).toInt - 1).max(0))
  }

  def geomean(xs: Iterable[Double]): Double = {
    require(xs.nonEmpty && xs.forall(_ > 0), s"geometric mean needs positive values: $xs")
    math.exp(xs.map(math.log).sum / xs.size)
  }
}

/** Named sample lists, keyed by (metric, program). */
final class Samples {
  private val m = mutable.LinkedHashMap.empty[(String, String), mutable.ArrayBuffer[Double]]

  def add(metric: String, program: String, v: Double): Unit =
    m.getOrElseUpdate((metric, program), mutable.ArrayBuffer.empty) += v

  def get(metric: String, program: String): Seq[Double] =
    m.getOrElse((metric, program), Nil).toSeq

  def median(metric: String, program: String): Double = Stats.median(get(metric, program))

  /** Geometric mean over programs of each program's median (or quantile
    * `q`); a program without samples (every execution threw) is left out.
    */
  def geo(metric: String, programs: Seq[String], q: Double = 0.5): Double =
    Stats.geomean(programs.filter(get(metric, _).nonEmpty).map(p =>
      if (q == 0.5) median(metric, p) else Stats.quantile(get(metric, p), q)))

  /** Sum over programs of each program's median. */
  def total(metric: String, programs: Seq[String]): Double =
    programs.filter(get(metric, _).nonEmpty).map(median(metric, _)).sum

  /** Every metric's median for one program. */
  def medians(program: String): collection.immutable.ListMap[String, Double] =
    collection.immutable.ListMap.from(m.iterator.collect {
      case ((metric, `program`), xs) if xs.nonEmpty => metric -> Stats.median(xs)
    })
}

/** A traced interval; `stmt` is the index of the target statement, or -1. */
final case class Span(name: String, program: String, stmt: Int, startNs: Long, endNs: Long) {
  def ms: Double = (endNs - startNs) / 1e6
}

/** Spans kept in memory until the run ends. */
final class Tracer {
  val spans: mutable.ArrayBuffer[Span] = mutable.ArrayBuffer.empty

  def apply[A](name: String, program: String, stmt: Int = -1)(body: => A): A = {
    val t0 = System.nanoTime
    try body
    finally spans += Span(name, program, stmt, t0, System.nanoTime)
  }
}

/** Minimal JSON encoding for the result line and the trace file. */
object Json {
  def apply(v: Any): String = v match {
    case null => "null"
    case s: String => quote(s)
    case b: Boolean => b.toString
    case d: Double =>
      require(!d.isNaN && !d.isInfinite, s"not a JSON number: $d")
      d.toString
    case n: Int => n.toString
    case n: Long => n.toString
    case m: collection.Map[_, _] =>
      m.map { case (k, x) => quote(k.toString) + ": " + apply(x) }.mkString("{", ", ", "}")
    case xs: Iterable[_] => xs.map(apply).mkString("[", ", ", "]")
    case p: Product =>
      apply(collection.immutable.ListMap.from(p.productElementNames.zip(p.productIterator)))
    case other => quote(other.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"' => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    (b += '"').toString
  }
}
