package harness

import "testing"

// TestCalibrationReport checks that the corpus has the Figure 6 shape: on
// every Figure 6 bug the fuzzer manifests at least as often as vanilla
// scheduling, and summed over the set nodeV < nodeNFZ < nodeFZ. Trials run
// in virtual time, so the counts are exact per seed; `fzbench -exp fig6`
// gives the wall-clock rates. Run with -v to see the table.
func TestCalibrationReport(t *testing.T) {
	virtualTrials(t)

	const trials, baseSeed = 20, 1000
	var total [3]int // nodeV, nodeNFZ, nodeFZ
	t.Logf("%-10s %8s %8s %8s", "bug", "nodeV", "nodeNFZ", "nodeFZ")
	for _, row := range Fig6(trials, baseSeed) {
		var n [3]int
		for i, m := range Fig6Modes() {
			n[i] = row.Rates[m].Manifested
			total[i] += n[i]
		}
		t.Logf("%-10s %8d %8d %8d", row.Abbr, n[0], n[1], n[2])
		if n[2] < n[0] {
			t.Errorf("%s: nodeFZ manifested %d/%d, fewer than nodeV's %d", row.Abbr, n[2], trials, n[0])
		}
	}
	t.Logf("%-10s %8d %8d %8d", "total", total[0], total[1], total[2])
	if !(total[0] < total[1] && total[1] < total[2]) {
		t.Errorf("totals nodeV %d, nodeNFZ %d, nodeFZ %d: want nodeV < nodeNFZ < nodeFZ", total[0], total[1], total[2])
	}
}
