package repro.spark

import org.apache.spark.sql.{Column, DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.core.Comprehension._
import repro.core.Translate._
import repro.local.{Executor, LocalBackend}
import repro.local.LocalBackend.{ArrayD, Data, Rec, ScalarD}

/** Spark backend: compiles DIABLO target code to DataFrame (Catalyst)
  * operations.
  *
  *  - an array is a DataFrame with columns `k1..kn, v` (`v` may be a struct);
  *  - a generator becomes a scan; equality conditions linking a new
  *    generator to bound variables become equi-join conditions (a cross
  *    join when none exist — e.g. KMeans' points × centroids);
  *  - a group-by becomes `groupBy(keys).agg(...)` with one aggregate per
  *    extracted reduction (an empty key gives a global aggregate — the
  *    backend form of rule 16);
  *  - the old-value lookup of rule (15a) is a left-outer join with the
  *    monoid identity as default;
  *  - the array merge `◁` is a full-outer join with `coalesce(new, old)`;
  *  - scalars live on the driver; while-loops run on the driver.
  *
  * Array assignments are materialized eagerly (`localCheckpoint`) so
  * iterative programs do not accumulate lineage.
  */
object SparkBackend {

  sealed trait SValue
  final case class SScalar(v: Any) extends SValue
  /** df has columns k1..kn, v; None until the first assignment. */
  final case class SArr(df: Option[DataFrame], keyArity: Int) extends SValue

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

  /** Local state → Spark state. An empty array has no schema to infer, so
    * it becomes a never-assigned one.
    */
  def fromLocal(spark: SparkSession, data: Map[String, Data]): Map[String, SValue] =
    data.map {
      case (n, ScalarD(v))                 => n -> SScalar(v)
      case (n, ArrayD(m, ka)) if m.isEmpty => n -> SArr(None, ka)
      case (n, a @ ArrayD(_, ka))          => n -> SArr(Some(arrayToDF(spark, a)), ka)
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

  private final class Compiler(spark: SparkSession,
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
          case "log"  => log(cs.head)
          case "min"  => least(cs(0), cs(1))
          case "max"  => greatest(cs(0), cs(1))
          case other  => throw new IllegalArgumentException(s"unknown function $other")
        }
      case CIf(c, t, f) => when(col_(c, env), col_(t, env)).otherwise(col_(f, env))
      case CCombine(m, l, r) =>
        val (a, b) = (col_(l, env), col_(r, env))
        m match {
          case MSum  => a + b
          case MProd => a * b
          case MAnd  => a && b
          case MOr   => a || b
          case MMin  => least(a, b)   // least/greatest skip nulls
          case MMax  => greatest(a, b)
        }
      case other =>
        throw new IllegalArgumentException(s"not a column expression: ${show(other)}")
    }

    private def aggOf(m: Monoid, c: Column): Column = m match {
      case MSum  => coalesce(sum(c), lit(0))
      case MProd => aggregate(collect_list(c), lit(1.0), (acc, x) => acc * x)
      case MAnd  => coalesce(min(c), lit(true))
      case MOr   => coalesce(max(c), lit(false))
      case MMin  => min(c)
      case MMax  => max(c)
    }

    private def defaultCol(d: Default): Column = d match {
      case DZero  => lit(0)
      case DOne   => lit(1)
      case DTrue  => lit(true)
      case DFalse => lit(false)
      case DNull  => lit(null)
    }

    private def driverLong(e: CExpr): Long = {
      require(freeVars(e).isEmpty, s"range bound depends on loop variables: ${show(e)}")
      LocalBackend.evalExpr(e, Map.empty, scalarVal) match {
        case l: Long => l
        case d: Double => d.toLong
        case other => throw new IllegalArgumentException(s"not an integer bound: $other")
      }
    }

    /** Compile a comprehension to a DataFrame of its flattened head columns
      * (named c1..cm). None when the result is statically empty (a generator
      * over a still-uninitialized array).
      */
    def compile(c: Comp): Option[DataFrame] = {
      var cur: Option[DataFrame] = None
      var env = Map.empty[String, String]
      var head = c.head
      val quals = c.quals
      val consumed = scala.collection.mutable.Set.empty[Int]

      def unitDF: DataFrame = spark.range(1).drop("id")

      /** After binding `newVars` by a generator DataFrame `df` (whose
        * columns are already in `env`), consume the applicable predicates:
        * new-var-only predicates filter `df`; mixed-variable predicates
        * become equi-join conditions. Scanning stops at the group-by.
        */
      def joinIn(df0: DataFrame, newVars: Set[String], from: Int): Unit = {
        var df = df0
        val joinConds = List.newBuilder[Column]
        val allBound = env.keySet
        var qi = from
        var stop = false
        while (qi < quals.length && !stop) {
          quals(qi) match {
            case _: QGroup => stop = true
            case QPred(e) if !consumed(qi) && freeVars(e).subsetOf(allBound) &&
                freeVars(e).intersect(newVars).nonEmpty =>
              consumed += qi
              if (freeVars(e).subsetOf(newVars)) df = df.filter(col_(e, env))
              else joinConds += col_(e, env)
            case _ => ()
          }
          qi += 1
        }
        val conds = joinConds.result()
        cur = cur match {
          case None    => Some(conds.foldLeft(df)((d, c) => d.filter(c)))
          case Some(l) =>
            if (conds.isEmpty) Some(l.crossJoin(df))
            else Some(l.join(df, conds.reduce(_ && _), "inner"))
        }
      }

      var qi = 0
      while (qi < quals.length) {
        if (!consumed(qi)) quals(qi) match {
          case Gen(PVar(v), CRange(lo, hi)) =>
            val name = fresh()
            val df = spark.range(driverLong(lo), driverLong(hi) + 1).toDF(name)
            env += v -> name
            joinIn(df, Set(v), qi + 1)

          case Gen(p: PTup, CArr(a)) =>
            val sa = arr(a)
            sa.df match {
              case None => return None // generator over an empty array
              case Some(adf) =>
                val vars = p.vars
                val names = vars.map(_ => fresh())
                val df = adf.toDF(names: _*)
                env ++= vars.zip(names)
                joinIn(df, vars.toSet, qi + 1)
            }

          case Gen(p, src) =>
            throw new IllegalArgumentException(s"bad generator ${show(Gen(p, src))}")

          case QLet(PVar(v), e) =>
            val name = fresh()
            val base = cur.getOrElse(unitDF)
            cur = Some(base.withColumn(name, col_(e, env)))
            env += v -> name

          case QLet(p, _) =>
            throw new IllegalArgumentException(s"unsupported let pattern ${show(p)}")

          case QPred(e) =>
            cur = Some(cur.getOrElse(unitDF).filter(col_(e, env)))

          case QGroup(kvars, keys) =>
            val (head2, reds) = extractReduces(head, () => fresh())
            head = head2
            var base = cur.getOrElse(unitDF)
            // pre-group columns: group keys and reduction arguments
            val keyNames = keys.map { k =>
              val nm = fresh(); base = base.withColumn(nm, col_(k, env)); nm
            }
            val redArgs = reds.map { case (rv, m, argE) =>
              val argN = fresh(); base = base.withColumn(argN, col_(argE, env))
              (rv, m, argN, fresh())
            }
            val aggs = redArgs.map { case (_, m, argN, outN) =>
              aggOf(m, col(argN)).as(outN) }
            val grouped =
              if (keyNames.isEmpty) base.agg(aggs.head, aggs.tail: _*)
              else base.groupBy(keyNames.map(col): _*).agg(aggs.head, aggs.tail: _*)
            cur = Some(grouped)
            env = kvars.zip(keyNames).toMap ++
              redArgs.map { case (rv, _, _, outN) => rv -> outN }

          case QLookup(w, a, keyVars, default) =>
            val name = fresh()
            val base = cur.getOrElse(unitDF)
            arr(a).df match {
              case None =>
                cur = Some(base.withColumn(name, defaultCol(default)))
              case Some(adf) =>
                val ka = arr(a).keyArity
                val rNames = (0 to ka).map(_ => fresh())
                val rdf = adf.toDF(rNames: _*)
                val cond = keyVars.zipWithIndex.map { case (kv, i) =>
                  col(env(kv)) === col(rNames(i)) }.reduce(_ && _)
                val joined = base.join(rdf, cond, "left_outer")
                val vCol = col(rNames.last)
                val wCol = default match {
                  case DNull => vCol
                  case d     => coalesce(vCol, defaultCol(d))
                }
                cur = Some(joined.withColumn(name, wCol))
            }
            env += w -> name
        }
        qi += 1
      }

      val cols = headColumns(head).zipWithIndex.map { case (e, i) =>
        col_(e, env).as(s"c${i + 1}") }
      Some(cur.getOrElse(unitDF).select(cols: _*))
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
    protected def merge(old: SValue, c: Comp, ka: Int, state: State) =
      new Compiler(spark, state).compile(c).fold(old) { df =>
        val keys = (1 to ka).map(i => s"k$i")
        val ndf = df.toDF(keys :+ "v": _*)
        val merged = old match {
          case SArr(Some(odf), _) =>
            odf.join(ndf.withColumnRenamed("v", "_nv"), keys, "full_outer")
              .select(keys.map(col) :+ coalesce(col("_nv"), col("v")).as("v"): _*)
          case _ => ndf
        }
        SArr(Some(merged.localCheckpoint(true)), ka)
      }
  }.run(prog, init)
}
