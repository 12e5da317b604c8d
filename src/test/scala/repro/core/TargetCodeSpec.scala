package repro.core

import java.nio.file.{Files, Paths}
import org.scalatest.funsuite.AnyFunSuite
import repro.programs.Benchmarks

/** Golden test: the target code of every benchmark program, as translated
  * and as optimized, must match `src/test/resources/target-code.txt`. On a
  * mismatch the actual text is written to `target/target-code.actual.txt`;
  * copy it over the golden file when the change is intended.
  */
class TargetCodeSpec extends AnyFunSuite {

  private def render: String = Benchmarks.all.map { p =>
    val translated = Translate.translate(Parser.parse(p.source), p.sigs)
    val optimized  = Diablo.compile(p.source, p.sigs)
    s"== ${p.name}: translated\n${translated.map(Translate.showStmt).mkString("\n")}\n" +
      s"== ${p.name}: optimized\n${optimized.map(Translate.showStmt).mkString("\n")}\n"
  }.mkString

  test("target code of every benchmark program matches target-code.txt") {
    val golden = scala.io.Source.fromResource("target-code.txt").mkString
    val actual = render
    if (actual != golden) {
      val out = Paths.get("target", "target-code.actual.txt")
      Files.createDirectories(out.getParent)
      Files.writeString(out, actual)
      val (g, a) = (golden.linesIterator.toVector, actual.linesIterator.toVector)
      val i = g.zipAll(a, "<end>", "<end>").indexWhere { case (x, y) => x != y }
      fail(s"target code differs at line ${i + 1}:\n  golden: ${g.lift(i).getOrElse("<end>")}" +
        s"\n  actual: ${a.lift(i).getOrElse("<end>")}\n(actual text in $out)")
    }
  }
}
