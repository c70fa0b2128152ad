// Package nolintlint is the nolintlint analyzer's fixture: malformed and
// unknown //ebv: directives. It runs under the FULL suite, so the
// detorder diagnostic beside a nolint directive shows that no directive
// suppresses one.
package nolintlint

import (
	"bufio"
	"fmt"
)

//ebv:frobnicate spin the widget
// want-1 "unknown //ebv: directive"

//ebv:owns
// want-1 "missing its reason"

// notSuppressed carries a nolint directive, an unknown verb, beside a
// detorder diagnostic that is reported all the same.
func notSuppressed(w *bufio.Writer, m map[int]int) {
	for k := range m {
		fmt.Fprintln(w, k) //ebv:nolint detorder a reason suppresses nothing
		// want-1 "inside a range over a map" "unknown //ebv: directive \"nolint\""
	}
}
