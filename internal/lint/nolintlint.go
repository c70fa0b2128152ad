package lint

// NolintLint polices the //ebv: directives, so they stay precise instead of
// rotting into blanket waivers:
//
//   - //ebv:owns must carry a reason documenting who inherits the
//     recycle obligation.
//   - unknown //ebv: verbs are flagged (a misspelled directive is a
//     silent no-op otherwise), //ebv:nolint among them: no directive
//     suppresses a diagnostic.
var NolintLint = &Analyzer{
	Name: "nolintlint",
	Doc:  "//ebv: directives must be well-formed: //ebv:owns with its reason, no other verb (no directive suppresses a diagnostic)",
	Run:  runNolintLint,
}

func runNolintLint(pass *Pass) error {
	for _, d := range pass.Pkg.Directives() {
		switch {
		case d.verb != "owns":
			pass.Reportf(d.pos, "unknown //ebv: directive %q (the one verb is owns; no directive suppresses a diagnostic)", d.verb)
		case d.reason == "":
			pass.Reportf(d.pos, "//ebv:owns is missing its reason: say who inherits the recycle obligation")
		}
	}
	return nil
}
