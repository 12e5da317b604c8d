package repro.local

import repro.core.Comprehension._
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

  def arith(op: String, a: Any, b: Any): Any = (a, b) match {
    case (x: Long, y: Long) => op match {
      case "+" => x + y; case "-" => x - y; case "*" => x * y
      // `/` is double division, matching Spark SQL semantics
      case "/" => x.toDouble / y.toDouble; case "%" => x % y
    }
    case _ =>
      val (x, y) = (toD(a), toD(b))
      op match {
        case "+" => x + y; case "-" => x - y; case "*" => x * y
        case "/" => x / y; case "%" => x % y
      }
  }

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
      case MMin  => if (compareAny(a, b) <= 0) a else b
      case MMax  => if (compareAny(a, b) >= 0) a else b
    }

  def defaultValue(d: Default): Any = d match {
    case DZero  => 0L
    case DOne   => 1L
    case DTrue  => true
    case DFalse => false
    case DNull  => null
  }

  // ------------------------------------------------------ expression eval

  type Env = Map[String, Any]

  /** Evaluate a generator-free expression. CReduce over a single binding is
    * the binding itself (the driver path of rule 16).
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
        case "abs"  => vs.head match { case l: Long => math.abs(l); case d => math.abs(toD(d)) }
        case "pow"  => math.pow(toD(vs(0)), toD(vs(1)))
        case "exp"  => math.exp(toD(vs.head))
        case "log"  => math.log(toD(vs.head))
        case "min"  => if (compareAny(vs(0), vs(1)) <= 0) vs(0) else vs(1)
        case "max"  => if (compareAny(vs(0), vs(1)) >= 0) vs(0) else vs(1)
        case other  => throw new IllegalArgumentException(s"unknown function $other")
      }
    case CIf(c, t, f) =>
      if (evalExpr(c, env, scalar).asInstanceOf[Boolean]) evalExpr(t, env, scalar)
      else evalExpr(f, env, scalar)
    case CReduce(_, b)     => evalExpr(b, env, scalar) // singleton bag
    case CCombine(m, l, r) => combine(m, evalExpr(l, env, scalar), evalExpr(r, env, scalar))
    case CUn(op, _)  => throw new IllegalArgumentException(s"unknown unary $op")
    case CArr(_) | CRange(_, _) =>
      throw new IllegalArgumentException(s"not a scalar expression: ${show(e)}")
  }

  // --------------------------------------------------- comprehension plan

  /** Planned qualifier ops: array scans carry the equality predicates that
    * determine (some of) their index positions, enabling hash lookups.
    */
  private sealed trait Op
  private final case class OpRange(v: String, lo: CExpr, hi: CExpr) extends Op
  private final case class OpScan(idxVars: List[String], valVar: String,
                                  arr: String, keyed: List[(Int, CExpr)]) extends Op
  private final case class OpLet(v: String, e: CExpr) extends Op
  private final case class OpPred(e: CExpr) extends Op
  private final case class OpLookup(v: String, arr: String, keyVars: List[String],
                                    default: Default) extends Op

  private def plan(quals: List[Qual]): List[Op] = {
    val consumed = scala.collection.mutable.Set.empty[Int]
    var bound = Set.empty[String]
    val out = List.newBuilder[Op]
    for ((q, qi) <- quals.zipWithIndex if !consumed(qi)) q match {
      case Gen(PVar(v), CRange(lo, hi)) =>
        out += OpRange(v, lo, hi); bound += v
      case Gen(p: PTup, CArr(a)) =>
        val vars = p.vars
        val (idxVars, valVar) = (vars.dropRight(1), vars.last)
        val keyed = List.newBuilder[(Int, CExpr)]
        val keyedPos = scala.collection.mutable.Set.empty[Int]
        for ((r, ri) <- quals.zipWithIndex.drop(qi + 1) if !consumed(ri)) r match {
          case QPred(CBin("==", l, r2)) =>
            def tryKey(x: CExpr, e: CExpr): Boolean = x match {
              case CVar(n) if idxVars.contains(n) && freeVars(e).subsetOf(bound) =>
                val pos = idxVars.indexOf(n)
                if (!keyedPos(pos)) { keyedPos += pos; keyed += pos -> e; consumed += ri; true }
                else false
              case _ => false
            }
            if (!tryKey(l, r2)) tryKey(r2, l)
            ()
          case _ => ()
        }
        out += OpScan(idxVars, valVar, a, keyed.result())
        bound ++= vars
      case Gen(p, src) =>
        throw new IllegalArgumentException(s"bad generator ${show(Gen(p, src))}")
      case QLet(PVar(v), e)  => out += OpLet(v, e); bound += v
      case QLet(p, _) =>
        throw new IllegalArgumentException(s"unsupported let pattern ${show(p)}")
      case QPred(e)          => out += OpPred(e)
      case QLookup(v, a, ks, d) => out += OpLookup(v, a, ks, d); bound += v
      case _: QGroup =>
        throw new IllegalArgumentException("group-by must be split before planning")
    }
    out.result()
  }

  // --------------------------------------------------- comprehension eval

  private final class Evaluator(state: collection.Map[String, Data], par: Boolean) {
    private def scalar(n: String): Any = state(n) match {
      case ScalarD(v) => v
      case _ => throw new IllegalArgumentException(s"$n is not a scalar")
    }
    private def array(n: String): ArrayD = state(n) match {
      case a: ArrayD => a
      case _ => throw new IllegalArgumentException(s"$n is not an array")
    }
    private def ev(e: CExpr, env: Env): Any = evalExpr(e, env, scalar)

    // partial-key indexes, built once per comprehension evaluation
    private val indexes =
      scala.collection.mutable.Map.empty[(String, List[Int]), Map[List[Any], Seq[(List[Any], Any)]]]
    private def indexOf(arr: String, pos: List[Int]): Map[List[Any], Seq[(List[Any], Any)]] =
      indexes.getOrElseUpdate((arr, pos),
        array(arr).m.toSeq.map { case (k, v) => (k, v) }.groupBy { case (k, _) => pos.map(k) })

    /** Stream of environments produced by a (group-free) op list. */
    private def envStream(ops: List[Op], env: Env): Iterator[Env] = ops match {
      case Nil => Iterator.single(env)
      case op :: rest => op match {
        case OpRange(v, lo, hi) =>
          val l = toLong(ev(lo, env)); val h = toLong(ev(hi, env))
          (l to h).iterator.flatMap(i => envStream(rest, env + (v -> i)))
        case OpScan(idxVars, valVar, arr, keyed) =>
          val a = array(arr)
          val entries: Iterator[(List[Any], Any)] =
            if (keyed.size == a.keyArity) {
              val key = keyed.sortBy(_._1).map { case (_, e) => ev(e, env) }
              a.m.get(key).iterator.map(v => (key, v))
            } else if (keyed.nonEmpty) {
              val pos = keyed.map(_._1).sorted
              val partial = keyed.sortBy(_._1).map { case (_, e) => ev(e, env) }
              indexOf(arr, pos).getOrElse(partial, Seq.empty).iterator
            } else a.m.iterator
          entries.flatMap { case (k, v) =>
            envStream(rest, env ++ idxVars.zip(k) + (valVar -> v))
          }
        case OpLet(v, e)  => envStream(rest, env + (v -> ev(e, env)))
        case OpPred(e)    =>
          if (ev(e, env).asInstanceOf[Boolean]) envStream(rest, env) else Iterator.empty
        case OpLookup(v, arr, keyVars, default) =>
          val value = array(arr).m.getOrElse(keyVars.map(env), defaultValue(default))
          envStream(rest, env + (v -> value))
      }
    }

    /** Split the leading generator into chunks for the parallel mode.
      * Chunks are thunks producing environment streams, so environment
      * construction itself happens inside the parallel workers.
      */
    private def leadingChunks(ops: List[Op])
        : Option[(Seq[() => Iterator[Env]], List[Op])] = ops match {
      case OpRange(v, lo, hi) :: rest =>
        val l = toLong(ev(lo, Map.empty)); val h = toLong(ev(hi, Map.empty))
        if (h < l) Some((Seq(() => Iterator.empty), rest))
        else {
          val step = math.max(1L, (h - l + 1) / numChunks)
          val thunks = (l to h by step).map { s =>
            val e = math.min(h, s + step - 1)
            () => (s to e).iterator.map(i => Map[String, Any](v -> i))
          }
          Some((thunks, rest))
        }
      case OpScan(idxVars, valVar, arr, Nil) :: rest =>
        val items = array(arr).m.toArray
        val n = math.max(1, items.length / numChunks)
        val thunks = items.grouped(n).map { ch =>
          () => ch.iterator.map { case (k, v) =>
            (idxVars.zip(k) :+ (valVar -> v)).toMap }
        }.toSeq
        Some((thunks, rest))
      case _ => None
    }

    private def numChunks: Int = Runtime.getRuntime.availableProcessors

    private var counter = 0
    private def fresh(): String = { counter += 1; s"_r$counter" }

    /** Evaluate a comprehension to its rows (flattened head columns). */
    def rows(c: Comp): Seq[List[Any]] = splitAtGroup(c.quals) match {
      case None =>
        val ops  = plan(c.quals)
        val cols = headColumns(c.head)
        def emit(envs: Iterator[Env]): Vector[List[Any]] =
          envs.map(env => cols.map(ev(_, env))).toVector
        if (par) leadingChunks(ops) match {
          case Some((chunks, rest)) =>
            chunks.par.map(ch => emit(ch().flatMap(envStream(rest, _))))
              .reduceOption(_ ++ _).getOrElse(Vector.empty)
          case None => emit(envStream(ops, Map.empty))
        } else emit(envStream(ops, Map.empty))

      case Some((pre, QGroup(kvars, keys), post)) =>
        // extract reductions from the head and the post-group qualifiers
        val (head2, redsH) = extractReduces(c.head, () => fresh())
        val postExprs = post.collect { case QPred(e) => e; case QLet(_, e) => e }
        require(postExprs.forall(e => !containsReduce(e)),
          "reductions in post-group qualifiers are not generated")
        val reds = redsH
        val preOps  = plan(pre)
        val postOps = plan(post)

        type Acc = Array[Any]
        def accumulate(envs: Iterator[Env]): collection.mutable.HashMap[List[Any], Acc] = {
          val m = collection.mutable.HashMap.empty[List[Any], Acc]
          for (env <- envs) {
            val key = keys.map(ev(_, env))
            val args = reds.map { case (_, mo, arg) => (mo, ev(arg, env)) }
            m.get(key) match {
              case Some(acc) =>
                var i = 0
                while (i < acc.length) {
                  acc(i) = combine(args(i)._1, acc(i), args(i)._2); i += 1
                }
              case None => m(key) = args.map(_._2).toArray
            }
          }
          m
        }
        def mergeMaps(a: collection.mutable.HashMap[List[Any], Acc],
                      b: collection.mutable.HashMap[List[Any], Acc]) = {
          for ((k, acc) <- b) a.get(k) match {
            case Some(acc0) =>
              var i = 0
              while (i < acc0.length) {
                acc0(i) = combine(reds(i)._2, acc0(i), acc(i)); i += 1
              }
            case None => a(k) = acc
          }
          a
        }
        val grouped =
          if (par) leadingChunks(preOps) match {
            case Some((chunks, rest)) =>
              chunks.par.map(ch => accumulate(ch().flatMap(envStream(rest, _))))
                .reduceOption(mergeMaps).getOrElse(collection.mutable.HashMap.empty)
            case None => accumulate(envStream(preOps, Map.empty))
          } else accumulate(envStream(preOps, Map.empty))

        val cols = headColumns(head2)
        grouped.iterator.flatMap { case (key, acc) =>
          val env0: Env = kvars.zip(key).toMap ++ reds.map(_._1).zip(acc)
          envStream(postOps, env0).map(env => cols.map(ev(_, env)))
        }.toVector
    }
  }

  private def containsReduce(e: CExpr): Boolean = e match {
    case CReduce(_, _) => true
    case _             => children(e).exists(containsReduce)
  }

  private def toLong(a: Any): Long = a match {
    case l: Long => l
    case i: Int  => i.toLong
    case d: Double => d.toLong
    case other => throw new IllegalArgumentException(s"not an integer: $other")
  }

  // ------------------------------------------------------------ execution

  /** Run target code over an initial state; returns the final state. */
  def run(prog: List[TStmt], init: Map[String, Data], par: Boolean = false)
      : Map[String, Data] = new Executor[Data] {
    protected def scalar(v: Any) = ScalarD(v)
    protected val scalarValue: PartialFunction[Data, Any] = { case ScalarD(v) => v }
    protected def emptyArray(ka: Int) = ArrayD(Map.empty, ka)
    protected def first(c: Comp, state: State) =
      new Evaluator(state, par).rows(c).headOption.map(_.head)
    protected def merge(old: Data, c: Comp, ka: Int, state: State) = {
      val entries = old match {
        case ArrayD(m, _) => m
        case _            => Map.empty[List[Any], Any]
      }
      val rows = new Evaluator(state, par).rows(c)
      ArrayD(entries ++ rows.iterator.map(r => (r.take(ka), r.last)), ka)
    }
  }.run(prog, init)
}
