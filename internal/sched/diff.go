package sched

import (
	"fmt"
	"strings"
)

// DiffOp is one step of an edit script between two type schedules.
type DiffOp struct {
	// Kind is "same", "sub", "del" (only in a), or "ins" (only in b).
	Kind string
	// A and B are the elements involved ("" when absent).
	A, B string
	// AIdx and BIdx are the positions in each schedule (-1 when absent).
	AIdx, BIdx int
}

// Diff computes a minimal edit script turning schedule a into schedule b
// (the alignment behind the Levenshtein distance). It is the debugging
// companion to Figure 7's aggregate statistic: where the aggregate says
// "these two runs differ by 0.3", the script shows exactly which callbacks
// moved.
func Diff(a, b []string) []DiffOp {
	// Full DP table (the two-row trick cannot reconstruct the path).
	n, m := len(a), len(b)
	dp := make([][]int, n+1)
	for i := range dp {
		dp[i] = make([]int, m+1)
		dp[i][0] = i
	}
	for j := 0; j <= m; j++ {
		dp[0][j] = j
	}
	for i := 1; i <= n; i++ {
		for j := 1; j <= m; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			dp[i][j] = min3(dp[i-1][j]+1, dp[i][j-1]+1, dp[i-1][j-1]+cost)
		}
	}
	// Backtrack.
	var rev []DiffOp
	i, j := n, m
	for i > 0 || j > 0 {
		switch {
		case i > 0 && j > 0 && a[i-1] == b[j-1] && dp[i][j] == dp[i-1][j-1]:
			rev = append(rev, DiffOp{Kind: "same", A: a[i-1], B: b[j-1], AIdx: i - 1, BIdx: j - 1})
			i, j = i-1, j-1
		case i > 0 && j > 0 && dp[i][j] == dp[i-1][j-1]+1:
			rev = append(rev, DiffOp{Kind: "sub", A: a[i-1], B: b[j-1], AIdx: i - 1, BIdx: j - 1})
			i, j = i-1, j-1
		case i > 0 && dp[i][j] == dp[i-1][j]+1:
			rev = append(rev, DiffOp{Kind: "del", A: a[i-1], AIdx: i - 1, BIdx: -1})
			i--
		default:
			rev = append(rev, DiffOp{Kind: "ins", B: b[j-1], AIdx: -1, BIdx: j - 1})
			j--
		}
	}
	out := make([]DiffOp, len(rev))
	for k := range rev {
		out[k] = rev[len(rev)-1-k]
	}
	return out
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// FormatDiff renders an edit script, eliding runs of unchanged elements
// longer than context*2.
func FormatDiff(ops []DiffOp, context int) string {
	if context < 0 {
		context = 0
	}
	var b strings.Builder
	sameRun := 0
	flushElision := func() {
		if sameRun > 2*context {
			fmt.Fprintf(&b, "  ... %d unchanged ...\n", sameRun-2*context)
		}
		sameRun = 0
	}
	// First pass: emit with elision bookkeeping. Keep a small tail buffer
	// of "same" lines so context appears on both sides of a change.
	var tail []string
	for _, op := range ops {
		switch op.Kind {
		case "same":
			sameRun++
			tail = append(tail, fmt.Sprintf("    %s\n", op.A))
			if len(tail) > context {
				tail = tail[1:]
			}
		default:
			flushElision()
			for _, line := range tail {
				b.WriteString(line)
			}
			tail = nil
			switch op.Kind {
			case "sub":
				fmt.Fprintf(&b, "  ~ %s -> %s\n", op.A, op.B)
			case "del":
				fmt.Fprintf(&b, "  - %s\n", op.A)
			case "ins":
				fmt.Fprintf(&b, "  + %s\n", op.B)
			}
		}
	}
	flushElision()
	return b.String()
}

// DiffDistance reports the edit distance of a script (non-"same" ops); it
// equals Levenshtein of the inputs.
func DiffDistance(ops []DiffOp) int {
	d := 0
	for _, op := range ops {
		if op.Kind != "same" {
			d++
		}
	}
	return d
}
