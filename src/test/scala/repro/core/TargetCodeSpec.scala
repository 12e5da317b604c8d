package repro.core

import java.nio.file.{Files, Paths}
import org.scalatest.funsuite.AnyFunSuite
import repro.core.Translate._
import repro.programs.Benchmarks

/** Golden tests: the target code of every benchmark program, as translated
  * and as optimized, must match `src/test/resources/target-code.txt`, and
  * the plan of each of its comprehensions `src/test/resources/plans.txt`.
  * On a mismatch the actual text is written to `target/<name>.actual.txt`;
  * copy it over the golden file when the change is intended.
  */
class TargetCodeSpec extends AnyFunSuite {

  /** Each benchmark program's text by `f`, as translated and as optimized. */
  private def render(f: List[TStmt] => List[String]): String = Benchmarks.all.map { p =>
    val translated = Translate.translate(Parser.parse(p.source), p.sigs)
    val optimized  = Diablo.compile(p.source, p.sigs)
    s"== ${p.name}: translated\n${f(translated).mkString("\n")}\n" +
      s"== ${p.name}: optimized\n${f(optimized).mkString("\n")}\n"
  }.mkString

  /** Every comprehension's statement, then its plan indented below it. */
  private def plans(ts: List[TStmt], indent: String = ""): List[String] = {
    def plan(c: Comprehension.Comp) =
      Plan.plan(c).show.linesIterator.map(indent + "  " + _).toList
    ts.flatMap {
      case TInit(_, _)          => Nil
      case TAssign(n, c, true)  => s"$indent$n := $n <|" :: plan(c)
      case TAssign(n, c, false) => s"$indent$n :=" :: plan(c)
      case TWhileS(c, body)     =>
        (s"${indent}while" :: plan(c)) ++ (s"${indent}do" :: plans(body, indent + "  "))
    }
  }

  private def assertGolden(name: String, actual: String): Unit = {
    val golden = scala.io.Source.fromResource(s"$name.txt").mkString
    if (actual != golden) {
      val out = Paths.get("target", s"$name.actual.txt")
      Files.createDirectories(out.getParent)
      Files.writeString(out, actual)
      val (g, a) = (golden.linesIterator.toVector, actual.linesIterator.toVector)
      val i = g.zipAll(a, "<end>", "<end>").indexWhere { case (x, y) => x != y }
      fail(s"$name differs at line ${i + 1}:\n  golden: ${g.lift(i).getOrElse("<end>")}" +
        s"\n  actual: ${a.lift(i).getOrElse("<end>")}\n(actual text in $out)")
    }
  }

  test("target code of every benchmark program matches target-code.txt") {
    assertGolden("target-code", render(_.map(showStmt)))
  }

  test("plans of every benchmark program match plans.txt") {
    assertGolden("plans", render(plans(_)))
  }
}
