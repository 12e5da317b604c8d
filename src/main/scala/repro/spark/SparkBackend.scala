package repro.spark

import org.apache.spark.sql.{Column, DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.core.Comprehension._
import repro.core.Plan
import repro.core.Plan._
import repro.core.Translate._
import repro.local.{Executor, LocalBackend}
import repro.local.LocalBackend.{ArrayD, Data, Rec, ScalarD}

/** Spark backend: compiles the `Plan` of DIABLO target code to DataFrame
  * (Catalyst) operations.
  *
  *  - an array is a DataFrame with columns `k1..kn, v` (`v` may be a struct)
  *    and, when known, its row count;
  *  - a generator becomes a scan; the conditions it carries filter it when
  *    they mention only its own variables and otherwise are the join
  *    condition (a cross join when there are none — e.g. KMeans' points ×
  *    centroids); a range whose bounds depend on earlier bindings is
  *    exploded per binding;
  *  - a group-by becomes `groupBy(keys).agg(...)` with one aggregate per
  *    extracted reduction (an empty key gives a global aggregate — the
  *    backend form of rule 16 — with no row over an empty input);
  *  - the new side of an inner or cross join is broadcast when its
  *    estimated size is at most `BroadcastBytes` (see `Compiler.small`);
  *  - an array assignment `X := X ◁ c` (rule 15a) is one full-outer join
  *    of `c`'s rows with the old `X` at the head's key, which also gives
  *    the old value `w ← 𝒟⟦X⟧(k)` of an incremental update, defaulting to
  *    the monoid identity (see `Compiler.build`);
  *  - scalars live on the driver; while-loops run on the driver.
  *
  * The result of an array assignment is checkpointed (`localCheckpoint`),
  * so iterative programs do not accumulate lineage, and counted by the
  * same Spark job; the count travels with the array, so a statement run on
  * its own chooses the joins a whole-program run does.
  */
object SparkBackend {

  sealed trait SValue
  final case class SScalar(v: Any) extends SValue
  /** df has columns k1..kn, v; None until the first assignment. `rows`,
    * when known, is df's row count.
    */
  final case class SArr(df: Option[DataFrame], keyArity: Int, rows: Option[Long] = None)
      extends SValue
  object SArr {
    /** `SArr(df, keyArity)`: patterns need not name the row count. */
    def unapply(a: SArr): Some[(Option[DataFrame], Int)] = Some((a.df, a.keyArity))
  }

  /** A join side estimated at most this size is broadcast: Spark's default
    * `spark.sql.autoBroadcastJoinThreshold`, whatever the session sets.
    */
  val BroadcastBytes: Long = 10L << 20

  // ------------------------------------------------------- value bridging

  def sparkType(v: Any): DataType = v match {
    case _: Long    => LongType
    case _: Int     => LongType
    case _: Double  => DoubleType
    case _: Boolean => BooleanType
    case _: String  => StringType
    case Rec(fs)    => StructType(fs.map { case (n, fv) => StructField(n, sparkType(fv)) }.toArray)
    case other      => throw new IllegalArgumentException(s"unsupported value $other")
  }

  def toSparkValue(v: Any): Any = v match {
    case Rec(fs) => Row.fromSeq(fs.map { case (_, x) => toSparkValue(x) })
    case i: Int  => i.toLong
    case other   => other
  }

  def fromSparkValue(v: Any, dt: DataType): Any = (v, dt) match {
    case (null, _) => null
    case (r: Row, st: StructType) =>
      Rec(st.fields.toVector.zipWithIndex.map { case (f, i) =>
        (f.name, fromSparkValue(r.get(i), f.dataType)) })
    case (i: Int, _)   => i.toLong
    case (f: Float, _) => f.toDouble
    case (other, _)    => other
  }

  /** Local state → Spark state, with each array's row count. An empty
    * array has no schema to infer, so it becomes a never-assigned one.
    */
  def fromLocal(spark: SparkSession, data: Map[String, Data]): Map[String, SValue] =
    data.map {
      case (n, ScalarD(v))                 => n -> SScalar(v)
      case (n, ArrayD(m, ka)) if m.isEmpty => n -> SArr(None, ka)
      case (n, a @ ArrayD(m, ka))          =>
        n -> SArr(Some(arrayToDF(spark, a)), ka, Some(m.size.toLong))
    }

  /** Local array → DataFrame with columns k1..kn, v. */
  def arrayToDF(spark: SparkSession, a: ArrayD): DataFrame = {
    require(a.m.nonEmpty, "cannot infer a schema for an empty array")
    val (k0, v0) = a.m.head
    val fields = k0.zipWithIndex.map { case (kv, i) =>
      StructField(s"k${i + 1}", sparkType(kv)) } :+ StructField("v", sparkType(v0))
    val rows = a.m.iterator.map { case (k, v) =>
      Row.fromSeq(k.map(toSparkValue) :+ toSparkValue(v)) }.toSeq
    spark.createDataFrame(
      spark.sparkContext.parallelize(rows), StructType(fields.toArray))
  }

  /** DataFrame with columns k1..kn, v → local array. */
  def dfToArray(df: DataFrame, keyArity: Int): ArrayD = {
    val schema = df.schema
    val entries = df.collect().map { r =>
      val key = (0 until keyArity).toList.map(i =>
        fromSparkValue(r.get(i), schema(i).dataType))
      key -> fromSparkValue(r.get(keyArity), schema(keyArity).dataType)
    }
    ArrayD(entries.toMap, keyArity)
  }

  // --------------------------------------------------------- compilation

  private[spark] final class Compiler(spark: SparkSession,
                               state: collection.Map[String, SValue]) {
    private var n = 0
    private def fresh(): String = { n += 1; s"_c$n" }

    private def scalarVal(name: String): Any = state(name) match {
      case SScalar(v) => v
      case _ => throw new IllegalArgumentException(s"$name is not a scalar")
    }
    private def arr(name: String): SArr = state(name) match {
      case a: SArr => a
      case _ => throw new IllegalArgumentException(s"$name is not an array")
    }

    /** Literal for a driver value; record values become struct literals. */
    private def litOf(v: Any): Column = v match {
      case Rec(fs) => struct(fs.map { case (n, x) => litOf(x).as(n) }: _*)
      case other   => lit(other)
    }

    def col_(e: CExpr, env: Map[String, String]): Column = e match {
      case CVar(v)   => col(env(v))
      case CLit(v)   => lit(v)
      case CState(v) => litOf(scalarVal(v))
      case CBin(op, l, r) =>
        val (a, b) = (col_(l, env), col_(r, env))
        op match {
          case "+" => a + b;   case "-" => a - b; case "*" => a * b
          case "/" => a / b;   case "%" => a % b
          case "==" => a === b; case "!=" => a =!= b
          case "<" => a < b;   case "<=" => a <= b
          case ">" => a > b;   case ">=" => a >= b
          case "&&" => a && b; case "||" => a || b
          case "min" => least(a, b); case "max" => greatest(a, b) // skip nulls
        }
      case CUn("-", b)  => -col_(b, env)
      case CUn("!", b)  => !col_(b, env)
      case CField(b, f) => col_(b, env).getField(f)
      case CTup(es) =>
        struct(es.zipWithIndex.map { case (x, i) =>
          col_(x, env).as("_" + (i + 1)) }: _*)
      case CCall(f, args) =>
        val cs = args.map(col_(_, env))
        f match {
          case "sqrt" => sqrt(cs.head)
          case "abs"  => abs(cs.head)
          case "pow"  => pow(cs(0), cs(1))
          case "exp"  => exp(cs.head)
          // Spark's log is NULL for x <= 0; the local backend's is Java's
          case "log"  => when(cs.head > 0, log(cs.head))
            .when(cs.head === 0, Double.NegativeInfinity).otherwise(Double.NaN)
          case other  => throw new IllegalArgumentException(s"unknown function $other")
        }
      case other =>
        throw new IllegalArgumentException(s"not a column expression: ${show(other)}")
    }

    /** The aggregate of monoid `m` over column `c` of type `dt`. */
    private def aggOf(m: Monoid, c: Column, dt: DataType): Column = m match {
      case MSum  => coalesce(sum(c), lit(0))
      case MProd => aggregate(collect_list(c), lit(1).cast(dt), (acc, x) => acc * x)
      case MAnd  => coalesce(min(c), lit(true))
      case MOr   => coalesce(max(c), lit(false))
      case MMin  => min(c)
      case MMax  => max(c)
    }

    /** `df`, the new side of a join, hinted for broadcast when its estimated
      * size is at most `BroadcastBytes`: `rows` times the row size when the
      * count is known, else Spark's plan statistics — exact for a cached
      * DataFrame and for `spark.range`, `spark.sql.defaultSizeInBytes` for
      * an uncached RDD, which is therefore never broadcast.
      */
    private def small(df: DataFrame, rows: Option[Long]): DataFrame = {
      val bytes = rows.fold(df.queryExecution.optimizedPlan.stats.sizeInBytes)(
        BigInt(_) * df.schema.defaultSize)
      if (bytes <= BroadcastBytes) broadcast(df) else df
    }

    private def driverLong(e: CExpr): Long =
      LocalBackend.toLong(LocalBackend.evalExpr(e, Map.empty, scalarVal))

    /** Compile a comprehension to a DataFrame of its flattened head columns
      * (named c1..cm). None when the result is statically empty (a generator
      * over a still-uninitialized array).
      */
    def compile(c: Comp): Option[DataFrame] = build(Plan.plan(c), None)

    /** `old ◁ c`, where `old` is the assigned array's DataFrame, as a
      * DataFrame with columns k1..kn, v; None when `c` is statically empty.
      */
    def merge(c: Comp, old: Option[DataFrame], ka: Int): Option[DataFrame] =
      build(Plan.plan(c), old).map(_.toDF((1 to ka).map(i => s"k$i") :+ "v": _*))

    /** The DataFrame of plan `p`'s head columns. With `into`, the old
      * DataFrame of an array assignment, the plan's rows are merged into it
      * by one full-outer join at the head's key: the head where the plan has
      * a row, the old value elsewhere. The plan's old value (`p.old`) is that
      * join's value, or the default where there is none.
      */
    private def build(p: Plan, into: Option[DataFrame]): Option[DataFrame] = {
      if ((p.pre ++ p.post).exists { case s: Scan => arr(s.arr).df.isEmpty; case _ => false })
        return None
      var cur: Option[DataFrame] = None
      var env = Map.empty[String, String]
      def base: DataFrame = cur.getOrElse(spark.range(1).drop("id"))
      def bind(v: String): String = { val name = fresh(); env += v -> name; name }

      /** Join the DataFrame `df0` of generator `g`, whose columns are bound
        * in `env` and whose row count is `rows` if known: carried conditions
        * on its own variables filter `df0`, the others are the join
        * condition (a cross join when there are none).
        */
      def joinIn(g: Generator, df0: DataFrame, rows: Option[Long]): Unit = {
        val (own, links) = g.conds.partition(e => freeVars(e).subsetOf(g.vars.toSet))
        val df = own.foldLeft(df0)((d, e) => d.filter(col_(e, env)))
        val conds = links.map(col_(_, env))
        cur = cur match {
          case None    => Some(conds.foldLeft(df)((d, c) => d.filter(c)))
          case Some(l) =>
            val r = small(df, rows)
            if (conds.isEmpty) Some(l.crossJoin(r))
            else Some(l.join(r, conds.reduce(_ && _), "inner"))
        }
      }

      def step(s: Step): Unit = s match {
        case r @ RangeGen(v, lo, hi, _) if freeVars(lo).isEmpty && freeVars(hi).isEmpty =>
          joinIn(r, spark.range(driverLong(lo), driverLong(hi) + 1).toDF(bind(v)), None)
        case RangeGen(v, lo, hi, conds) =>
          // bounds depend on earlier bindings: each binding gets its own
          // range, none when lo > hi
          val (l, h) = (col_(lo, env).cast(LongType), col_(hi, env).cast(LongType))
          val ranged = base.withColumn(bind(v), explode(when(l <= h, sequence(l, h))))
          cur = Some(conds.foldLeft(ranged)((d, e) => d.filter(col_(e, env))))
        case g: Scan =>
          val a = arr(g.arr)
          joinIn(g, a.df.get.toDF(g.vars.map(bind): _*), a.rows)
        case Let(v, e) =>
          val value = col_(e, env)
          cur = Some(base.withColumn(bind(v), value))
        case Cond(e) =>
          cur = Some(base.filter(col_(e, env)))
      }

      p.pre.foreach(step)
      p.group.foreach { case Group(kvars, keys, reds) =>
        var b = base
        // pre-group columns: group keys and reduction arguments
        val keyNames = keys.map { k =>
          val nm = fresh(); b = b.withColumn(nm, col_(k, env)); nm
        }
        val redArgs = reds.map { case (rv, m, argE) =>
          val argN = fresh(); b = b.withColumn(argN, col_(argE, env))
          (rv, m, argN, fresh())
        }
        val aggs = redArgs.map { case (_, m, argN, outN) =>
          aggOf(m, col(argN), b.schema(argN).dataType).as(outN) }
        val grouped = b.groupBy(keyNames.map(col): _*)
        // an empty key is a global aggregate, which has a row even over no
        // input, where the local backend has no group: the count drops it
        cur = Some(if (keyNames.nonEmpty) grouped.agg(aggs.head, aggs.tail: _*)
          else { val n = fresh(); grouped.agg(count(lit(1)).as(n), aggs: _*).filter(col(n) > 0) })
        env = kvars.zip(keyNames).toMap ++ redArgs.map { case (rv, _, _, outN) => rv -> outN }
      }
      p.post.foreach(step)
      // the old array's columns, joined to the plan's rows, which are
      // marked: they take the head, the others keep the old value
      val marker = fresh()
      val old = into.map { odf =>
        val names = odf.columns.toList.map(_ => fresh())
        val cond = p.head.init.zip(names).map { case (k, n) => col_(k, env) === col(n) }
        cur = Some(base.withColumn(marker, lit(true))
          .join(odf.toDF(names: _*), cond.reduce(_ && _), "full_outer"))
        names.map(col)
      }
      p.old.foreach { l => cur = Some(base.withColumn(bind(l.v),
        coalesce(old.fold(lit(null))(_.last), lit(l.default.value)))) }
      val head = old.fold(p.head.map(col_(_, env))) { o =>
        p.head.init.zip(o).map { case (k, x) => coalesce(col_(k, env), x) } :+
          coalesce(when(col(marker), col_(p.head.last, env)), o.last)
      }
      Some(base.select(head.zipWithIndex.map { case (h, i) => h.as(s"c${i + 1}") }: _*))
    }
  }

  // ------------------------------------------------------------ execution

  /** Run target code over an initial state; returns the final state. */
  def run(prog: List[TStmt], init: Map[String, SValue], spark: SparkSession)
      : Map[String, SValue] = new Executor[SValue] {
    protected def scalar(v: Any) = SScalar(v)
    protected val scalarValue: PartialFunction[SValue, Any] = { case SScalar(v) => v }
    protected def emptyArray(ka: Int) = SArr(None, ka)
    protected def first(c: Comp, state: State) =
      new Compiler(spark, state).compile(c).flatMap { df =>
        df.collect().headOption.map(r => fromSparkValue(r.get(0), df.schema.head.dataType))
      }
    protected def merge(old: SValue, c: Comp, ka: Int, state: State) = {
      val odf = old match { case SArr(df, _) => df; case _ => None }
      new Compiler(spark, state).merge(c, odf, ka).fold(old) { df =>
        // one job computes, checkpoints and counts the array, as the one
        // job of an eager checkpoint would
        val done = df.localCheckpoint(false)
        SArr(Some(done), ka, Some(done.queryExecution.toRdd.count()))
      }
    }
  }.run(prog, init)
}
