package repro.local

import repro.core.Comprehension._
import repro.core.Translate._
import repro.local.LocalBackend.{Env, evalExpr}

/** The statement loop of DIABLO target code (§3.8), shared by both
  * backends: array assignments `V := V ◁ comprehension`, scalar
  * assignments and sequential while-loops over a state of values `V`.
  *
  * Generator-free scalar comprehensions (while conditions, scalar
  * assignments) are evaluated here, on the driver. A backend supplies its
  * value representation and two evaluators: the first value of a
  * comprehension, and the merge `old ◁ comprehension`.
  */
abstract class Executor[V] {
  type State = collection.Map[String, V]

  protected def scalar(v: Any): V
  protected def scalarValue: PartialFunction[V, Any]
  protected def emptyArray(keyArity: Int): V
  /** First column of the first row of `c`; None when `c` is empty. */
  protected def first(c: Comp, state: State): Option[Any]
  /** `old ◁ c`: the rows of `c` (keys, then value) override `old`. */
  protected def merge(old: V, c: Comp, keyArity: Int, state: State): V

  /** Run target code over an initial state; returns the final state. */
  final def run(prog: List[TStmt], init: Map[String, V]): Map[String, V] = {
    val state = collection.mutable.Map.empty[String, V] ++ init
    def scalarOf(n: String): Any = scalarValue.applyOrElse(state(n), (_: V) =>
      throw new IllegalArgumentException(s"$n is not a scalar"))
    def value(c: Comp): Option[Any] =
      if (c.quals.exists(_.isInstanceOf[Gen])) first(c, state)
      else evalDriverComp(c, scalarOf)

    def exec(ts: List[TStmt]): Unit = ts.foreach {
      case TInit(n, ka) => state(n) = emptyArray(ka)
      case TAssign(n, c, true) =>
        val ka = headColumns(c.head).length - 1
        state(n) = merge(state.getOrElse(n, emptyArray(ka)), c, ka, state)
      case TAssign(n, c, false) => value(c).foreach(v => state(n) = scalar(v))
      case TWhileS(c, body) =>
        while (value(c).exists(_.asInstanceOf[Boolean])) exec(body)
    }
    exec(prog)
    state.toMap
  }

  /** Driver path for a generator-free comprehension: None when a condition
    * fails.
    */
  private def evalDriverComp(c: Comp, scalar: String => Any): Option[Any] = {
    var env: Env = Map.empty
    for (q <- c.quals) q match {
      case QLet(PVar(v), e) => env += v -> evalExpr(e, env, scalar)
      case QPred(e) =>
        if (!evalExpr(e, env, scalar).asInstanceOf[Boolean]) return None
      case QGroup(Nil, Nil) => () // single group: CReduce is identity
      case other =>
        throw new IllegalArgumentException(s"not driver-evaluable: ${show(other)}")
    }
    Some(evalExpr(c.head, env, scalar))
  }
}
