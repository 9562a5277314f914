package experiments

import (
	"fmt"

	"jessica2/internal/runner"
)

// Figure is one regenerable table or figure of the evaluation.
type Figure struct {
	// Name selects the figure on the command line (djvmbench -fig) and
	// names its case in benchmark reports.
	Name string
	// Title heads the rendered output.
	Title string
	// Run regenerates the figure. A result with a Violations() []string
	// method doubles as an assertion: a non-empty list means one of the
	// figure's claims failed.
	Run func(Scale, *runner.Pool) fmt.Stringer
}

// figure adapts a typed regeneration function to the registry.
func figure[R fmt.Stringer](name, title string, run func(Scale, *runner.Pool) R) Figure {
	return Figure{Name: name, Title: title, Run: func(sc Scale, p *runner.Pool) fmt.Stringer { return run(sc, p) }}
}

// Figures lists every table and figure in regeneration order.
var Figures = []Figure{
	{Name: "Table1", Title: "Table I", Run: func(sc Scale, _ *runner.Pool) fmt.Stringer { return Table1(sc) }},
	figure("Table2", "Table II", Table2),
	figure("Table3", "Table III", Table3),
	figure("Table4", "Table IV", Table4),
	figure("Table5", "Table V", Table5),
	figure("Fig9", "Figure 9", Fig9),
	figure("Fig1", "Figure 1", Fig1),
	figure("FigS", "Figure S", FigS),
	figure("FigCL", "Figure CL", FigCL),
	figure("FigR", "Figure R", FigR),
	figure("FigT", "Figure T", FigT),
	figure("FigG", "Figure G", FigG),
	figure("FigW", "Figure W", FigW),
}
