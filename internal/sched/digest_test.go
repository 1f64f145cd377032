package sched

import "testing"

func TestDigestBoundaries(t *testing.T) {
	a := Digest([]string{"timer", "net-read"})
	b := Digest([]string{"timer", "net-read"})
	if a != b {
		t.Fatal("digest not deterministic")
	}
	if Digest([]string{"timernet-read"}) == a {
		t.Error("element boundaries not separated")
	}
	if Digest([]string{"net-read", "timer"}) == a {
		t.Error("digest order-insensitive")
	}
	if Digest(nil) != Digest([]string{}) {
		t.Error("nil and empty schedules must share a digest")
	}
	if Digest(nil) == a {
		t.Error("empty schedule collides with non-empty")
	}
}

func TestDigestString(t *testing.T) {
	if got := DigestString(0xab); got != "00000000000000ab" {
		t.Fatalf("DigestString(0xab) = %q", got)
	}
	if len(DigestString(^uint64(0))) != 16 {
		t.Fatal("digest string not fixed width")
	}
}
