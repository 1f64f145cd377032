package main

import (
	"strings"
	"testing"
)

func file(bs ...Benchmark) *File {
	return &File{Benchmarks: bs}
}

func bench(name string, allocs float64) Benchmark {
	return Benchmark{Name: name, Iterations: 10, NsPerOp: 1000, AllocsPerOp: allocs}
}

func TestCompare(t *testing.T) {
	base := file(bench("BenchmarkA", 100), bench("BenchmarkB/near", 0), bench("BenchmarkB/far", 0))
	cases := []struct {
		name     string
		cur      *File
		ok       bool
		mentions string
	}{
		{"within tolerance", file(bench("BenchmarkA", 110), bench("BenchmarkB/near", 0), bench("BenchmarkB/far", 0)), true, ""},
		{"fewer allocs", file(bench("BenchmarkA", 50), bench("BenchmarkB/near", 0), bench("BenchmarkB/far", 0)), true, ""},
		{"over tolerance", file(bench("BenchmarkA", 111), bench("BenchmarkB/near", 0), bench("BenchmarkB/far", 0)), false, "BenchmarkA"},
		{"allocs from zero", file(bench("BenchmarkA", 100), bench("BenchmarkB/near", 1), bench("BenchmarkB/far", 0)), false, "BenchmarkB/near"},
		{"baselined benchmark missing", file(bench("BenchmarkA", 100), bench("BenchmarkB/near", 0)), false, "BenchmarkB/far"},
		{"benchmark without baseline", file(bench("BenchmarkA", 100), bench("BenchmarkB/near", 0), bench("BenchmarkB/far", 0), bench("BenchmarkC", 1)), false, "BenchmarkC"},
		{"renamed into sub-benchmarks", file(bench("BenchmarkA/x", 100), bench("BenchmarkA/y", 100), bench("BenchmarkB/near", 0), bench("BenchmarkB/far", 0)), false, "BenchmarkA"},
		{"nothing in common", file(bench("BenchmarkZ", 1)), false, "nothing compared"},
	}
	for _, c := range cases {
		var out strings.Builder
		if got := compare(&out, base, c.cur, 0.10); got != c.ok {
			t.Errorf("%s: compare = %v, want %v\n%s", c.name, got, c.ok, out.String())
			continue
		}
		if c.ok {
			if strings.Contains(out.String(), "FAIL") {
				t.Errorf("%s: passed but printed a failure:\n%s", c.name, out.String())
			}
			continue
		}
		var failLine bool
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, c.mentions) && (strings.Contains(line, "FAIL") || strings.Contains(line, "nothing compared")) {
				failLine = true
			}
		}
		if !failLine {
			t.Errorf("%s: no failure line names %q:\n%s", c.name, c.mentions, out.String())
		}
	}
}
