package repro.local

import repro.core.Comprehension._
import repro.core.Plan
import repro.core.Plan._
import repro.core.Translate._
import scala.collection.parallel.CollectionConverters._

/** In-memory backend for DIABLO target code.
  *
  * Arrays are hash maps from flat key lists to values; comprehensions are
  * evaluated as streams of variable bindings with hash-join optimization
  * (an array generator whose index variables are determined by equality
  * predicates becomes a map lookup instead of a scan).
  *
  * Two modes (paper Table 2): *sequential*, and *parallel* via Scala
  * parallel collections — the leading generator is split into chunks, each
  * chunk produces a partial result (rows, or per-key monoid states for
  * group-by comprehensions), and partial results are merged. This is the
  * same map/combine structure the paper's shared-memory backend uses.
  */
object LocalBackend {

  // ----------------------------------------------------------- data model

  /** Record value (tuples are records with fields _1.._n). */
  final case class Rec(fields: Vector[(String, Any)]) {
    def apply(f: String): Any =
      fields.find(_._1 == f).map(_._2)
        .getOrElse(throw new NoSuchElementException(s"no field $f in $this"))
    override def toString = fields.map { case (k, v) => s"$k=$v" }.mkString("(", ",", ")")
  }

  sealed trait Data
  final case class ScalarD(v: Any) extends Data
  final case class ArrayD(m: Map[List[Any], Any], keyArity: Int) extends Data

  // ------------------------------------------------------------ value ops

  private def toD(a: Any): Double = a match {
    case l: Long => l.toDouble
    case d: Double => d
    case i: Int => i.toDouble
    case other => throw new IllegalArgumentException(s"not numeric: $other")
  }

  /** Long overflow and a zero divisor of `/` or `%` raise, as in Spark's
    * ANSI mode (unary minus is `0 - x`, so it raises too).
    */
  def arith(op: String, a: Any, b: Any): Any = (a, b) match {
    case (x: Long, y: Long) => op match {
      case "+" => Math.addExact(x, y); case "-" => Math.subtractExact(x, y)
      case "*" => Math.multiplyExact(x, y)
      case "/" | "%" if y == 0 => byZero(op)
      // `/` is double division, matching Spark SQL semantics
      case "/" => x.toDouble / y.toDouble; case "%" => x % y
    }
    case _ =>
      val (x, y) = (toD(a), toD(b))
      op match {
        case "+" => x + y; case "-" => x - y; case "*" => x * y
        case "/" | "%" if y == 0.0 => byZero(op)
        case "/" => x / y; case "%" => x % y
      }
  }

  private def byZero(op: String): Nothing = throw new ArithmeticException(
    if (op == "/") "DIVIDE_BY_ZERO: division by zero" else "REMAINDER_BY_ZERO: remainder by zero")

  def compareAny(a: Any, b: Any): Int = (a, b) match {
    case (x: String, y: String)   => x.compareTo(y)
    case (x: Boolean, y: Boolean) => x.compareTo(y)
    case (x: Rec, y: Rec) =>
      x.fields.map(_._2).zip(y.fields.map(_._2)).iterator
        .map { case (u, v) => compareAny(u, v) }.find(_ != 0).getOrElse(0)
    case (x: Long, y: Long)       => x.compareTo(y)
    case _                        => toD(a).compareTo(toD(b))
  }

  def equalAny(a: Any, b: Any): Boolean = (a, b) match {
    case (x: String, y: String)   => x == y
    case (x: Boolean, y: Boolean) => x == y
    case (_: Rec, _: Rec) | (_: Long, _: Long) => a == b
    case _                        => compareAny(a, b) == 0
  }

  /** Monoid combine with null as a neutral element (missing old values). */
  def combine(m: Monoid, a: Any, b: Any): Any =
    if (a == null) b
    else if (b == null) a
    else m match {
      case MSum  => arith("+", a, b)
      case MProd => arith("*", a, b)
      case MAnd  => a.asInstanceOf[Boolean] && b.asInstanceOf[Boolean]
      case MOr   => a.asInstanceOf[Boolean] || b.asInstanceOf[Boolean]
      case MMin | MMax =>
        val c = compareAny(a, b)
        val r = if (if (m == MMin) c <= 0 else c >= 0) a else b
        // a long and a double give a double, as Spark's least/greatest do
        (a, b) match {
          case (_: Long, _: Double) | (_: Double, _: Long) => toD(r)
          case _                                           => r
        }
    }

  // ------------------------------------------------------ expression eval

  type Env = Map[String, Any]

  /** Evaluate a generator-free expression. `Plan` extracts every reduction
    * of a comprehension's head, so none is left to evaluate here.
    */
  def evalExpr(e: CExpr, env: Env, scalar: String => Any): Any = e match {
    case CVar(n)   => env.getOrElse(n,
      throw new NoSuchElementException(s"unbound comprehension variable $n"))
    case CLit(v)   => v
    case CState(n) => scalar(n)
    case CBin(op, l, r) =>
      val a = evalExpr(l, env, scalar)
      op match {
        case "&&" => a.asInstanceOf[Boolean] && evalExpr(r, env, scalar).asInstanceOf[Boolean]
        case "||" => a.asInstanceOf[Boolean] || evalExpr(r, env, scalar).asInstanceOf[Boolean]
        case _ =>
          val b = evalExpr(r, env, scalar)
          op match {
            case "+" | "-" | "*" | "/" | "%" => arith(op, a, b)
            case "==" => equalAny(a, b)
            case "!=" => !equalAny(a, b)
            case "<"  => compareAny(a, b) < 0
            case "<=" => compareAny(a, b) <= 0
            case ">"  => compareAny(a, b) > 0
            case ">=" => compareAny(a, b) >= 0
            case "min" | "max" => combine(Monoid.ofOp(op), a, b)
          }
      }
    case CUn("-", b) => arith("-", 0L, evalExpr(b, env, scalar))
    case CUn("!", b) => !evalExpr(b, env, scalar).asInstanceOf[Boolean]
    case CField(b, f) => evalExpr(b, env, scalar).asInstanceOf[Rec](f)
    case CTup(es) =>
      Rec(es.zipWithIndex.map { case (x, i) =>
        ("_" + (i + 1), evalExpr(x, env, scalar)) }.toVector)
    case CCall(f, args) =>
      val vs = args.map(evalExpr(_, env, scalar))
      f match {
        case "sqrt" => math.sqrt(toD(vs.head))
        case "abs"  => vs.head match { case l: Long => Math.absExact(l); case d => math.abs(toD(d)) }
        case "pow"  => math.pow(toD(vs(0)), toD(vs(1)))
        case "exp"  => math.exp(toD(vs.head))
        case "log"  => math.log(toD(vs.head))
        case other  => throw new IllegalArgumentException(s"unknown function $other")
      }
    case CUn(op, _)  => throw new IllegalArgumentException(s"unknown unary $op")
    case CArr(_) | CRange(_, _) | CReduce(_, _) =>
      throw new IllegalArgumentException(s"not a scalar expression: ${show(e)}")
  }

  // --------------------------------------------------- comprehension eval

  /** Evaluates comprehensions by walking their `Plan`. A scan whose carried
    * conditions fix index positions (its keys) becomes a hash lookup, on the
    * array itself or on a partial-key index.
    */
  private final class Evaluator(scalar: String => Any, array: String => ArrayD,
                                par: Boolean) {
    private def ev(e: CExpr, env: Env): Any = evalExpr(e, env, scalar)

    @annotation.tailrec
    private def holds(conds: List[CExpr], env: Env): Boolean = conds match {
      case Nil    => true
      case c :: r => ev(c, env).asInstanceOf[Boolean] && holds(r, env)
    }

    // partial-key indexes, built once per comprehension evaluation
    private val indexes =
      scala.collection.mutable.Map.empty[(String, List[Int]), Map[List[Any], Seq[(List[Any], Any)]]]
    private def indexOf(arr: String, pos: List[Int]): Map[List[Any], Seq[(List[Any], Any)]] =
      indexes.getOrElseUpdate((arr, pos),
        array(arr).m.toSeq.groupBy { case (k, _) => pos.map(k) })

    /** The environments of `rest` from `env`, none unless `conds` hold. */
    private def guarded(conds: List[CExpr], env: Env, rest: List[Step]): Iterator[Env] =
      if (holds(conds, env)) envs(rest, env) else Iterator.empty

    private def rangeEnvs(r: RangeGen, l: Long, h: Long, env: Env, rest: List[Step])
        : Iterator[Env] =
      (l to h).iterator.flatMap(i => guarded(r.conds, env + (r.v -> i), rest))

    private def scanEnvs(s: Scan, entries: Iterator[(List[Any], Any)], env: Env,
                         rest: List[Step]): Iterator[Env] =
      entries.flatMap { case (k, v) =>
        guarded(s.filters, env ++ s.idxVars.zip(k) + (s.valVar -> v), rest) }

    /** Stream of environments produced by a (group-free) step list. */
    private def envs(steps: List[Step], env: Env): Iterator[Env] = steps match {
      case Nil => Iterator.single(env)
      case step :: rest => step match {
        case r: RangeGen =>
          rangeEnvs(r, toLong(ev(r.lo, env)), toLong(ev(r.hi, env)), env, rest)
        case s: Scan =>
          val a = array(s.arr)
          val entries: Iterator[(List[Any], Any)] =
            if (s.keys.isEmpty) a.m.iterator
            else {
              val key = s.keyExprs.map(ev(_, env))
              if (s.keys.size == a.keyArity) a.m.get(key).iterator.map(v => (key, v))
              else indexOf(s.arr, s.keyPos).getOrElse(key, Seq.empty).iterator
            }
          scanEnvs(s, entries, env, rest)
        case Let(v, e) => envs(rest, env + (v -> ev(e, env)))
        case Cond(e)   =>
          if (ev(e, env).asInstanceOf[Boolean]) envs(rest, env) else Iterator.empty
      }
    }

    /** The environment streams of `steps` as thunks. In parallel mode the
      * leading generator is split into one chunk per core, so environment
      * construction itself happens inside the workers; sequential mode is
      * the one-chunk case.
      */
    private def chunks(steps: List[Step]): Seq[() => Iterator[Env]] = steps match {
      case (r: RangeGen) :: rest if par =>
        val l = toLong(ev(r.lo, Map.empty)); val h = toLong(ev(r.hi, Map.empty))
        val step = math.max(1L, (h - l + 1) / numChunks)
        (l to h by step).map { s =>
          () => rangeEnvs(r, s, math.min(h, s + step - 1), Map.empty, rest)
        }
      case (s: Scan) :: rest if par && s.keys.isEmpty =>
        val items = array(s.arr).m.toArray
        items.grouped(math.max(1, items.length / numChunks)).map { ch =>
          () => scanEnvs(s, ch.iterator, Map.empty, rest)
        }.toSeq
      case _ => Seq(() => envs(steps, Map.empty))
    }

    private def numChunks: Int = Runtime.getRuntime.availableProcessors

    /** `f` applied to every chunk of `steps`, in parallel in parallel mode. */
    private def perChunk[A](steps: List[Step])(f: Iterator[Env] => A): Seq[A] = {
      val cs = chunks(steps)
      if (par) cs.par.map(ch => f(ch())).seq else cs.map(ch => f(ch()))
    }

    /** Evaluate a comprehension to its rows (flattened head columns), with
      * the plan's old value read from `old`, the array they merge into.
      */
    def rows(c: Comp, old: Map[List[Any], Any]): Seq[List[Any]] = {
      val p = Plan.plan(c)
      // the old value is bound after every step, just before the head
      def emit(env: Env): List[Any] = {
        val full = p.old.fold(env) { case Lookup(v, _, keyVars, default) =>
          env + (v -> old.getOrElse(keyVars.map(env), default.value)) }
        p.head.map(ev(_, full))
      }
      p.group match {
        case None =>
          perChunk(p.pre)(_.map(emit).toVector).reduceOption(_ ++ _).getOrElse(Vector.empty)
        case Some(Group(kvars, keys, reds)) =>
          type Groups = collection.mutable.HashMap[List[Any], Array[Any]]
          val monoids = reds.map(_._2).toArray
          val args = reds.map(_._3).toArray
          // folds the reduction values value(i) into the group of key
          def add(m: Groups, key: List[Any], value: Int => Any): Unit = m.get(key) match {
            case Some(acc) =>
              var i = 0
              while (i < acc.length) { acc(i) = combine(monoids(i), acc(i), value(i)); i += 1 }
            case None => m(key) = Array.tabulate(args.length)(value)
          }
          def accumulate(envs: Iterator[Env]): Groups = {
            val m: Groups = collection.mutable.HashMap.empty
            for (env <- envs) add(m, keys.map(ev(_, env)), i => ev(args(i), env))
            m
          }
          def mergeMaps(a: Groups, b: Groups): Groups = { for ((k, vs) <- b) add(a, k, vs(_)); a }
          val grouped = perChunk(p.pre)(accumulate).reduceOption(mergeMaps)
            .getOrElse(collection.mutable.HashMap.empty)
          grouped.iterator.flatMap { case (key, acc) =>
            val env0: Env = kvars.zip(key).toMap ++ reds.map(_._1).zip(acc)
            envs(p.post, env0).map(emit)
          }.toVector
      }
    }
  }

  /** An integer value (a range bound) as a Long; doubles are truncated. */
  def toLong(a: Any): Long = a match {
    case l: Long => l
    case i: Int  => i.toLong
    case d: Double => d.toLong
    case other => throw new IllegalArgumentException(s"not an integer: $other")
  }

  /** First column of the first row of a generator-free comprehension, which
    * reads no array, evaluated on the driver; None when it is empty.
    */
  def driverValue(c: Comp, scalar: String => Any): Option[Any] =
    new Evaluator(scalar,
      a => throw new IllegalArgumentException(s"array $a read on the driver"),
      par = false).rows(c, Map.empty).headOption.map(_.head)

  // ------------------------------------------------------------ execution

  /** Run target code over an initial state; returns the final state. */
  def run(prog: List[TStmt], init: Map[String, Data], par: Boolean = false)
      : Map[String, Data] = new Executor[Data] {
    protected def scalar(v: Any) = ScalarD(v)
    protected val scalarValue: PartialFunction[Data, Any] = { case ScalarD(v) => v }
    protected def emptyArray(ka: Int) = ArrayD(Map.empty, ka)
    private def evaluator(state: State) = new Evaluator(
      n => state(n) match {
        case ScalarD(v) => v
        case _ => throw new IllegalArgumentException(s"$n is not a scalar")
      },
      n => state(n) match {
        case a: ArrayD => a
        case _ => throw new IllegalArgumentException(s"$n is not an array")
      }, par)
    protected def first(c: Comp, state: State) =
      evaluator(state).rows(c, Map.empty).headOption.map(_.head)
    protected def merge(old: Data, c: Comp, ka: Int, state: State) = {
      val entries = old match {
        case ArrayD(m, _) => m
        case _            => Map.empty[List[Any], Any]
      }
      val rows = evaluator(state).rows(c, entries)
      ArrayD(entries ++ rows.iterator.map(r => (r.take(ka), r.last)), ka)
    }
  }.run(prog, init)
}
