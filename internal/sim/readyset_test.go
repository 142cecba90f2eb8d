package sim

import (
	"reflect"
	"testing"
)

func members(s *ReadySet) []int {
	var out []int
	for i := s.Next(0); i >= 0; i = s.Next(i + 1) {
		out = append(out, i)
	}
	return out
}

func TestReadySetWordBoundaries(t *testing.T) {
	var s ReadySet
	if got := s.Next(0); got != -1 {
		t.Fatalf("empty set: Next(0) = %d", got)
	}
	s.Remove(5) // absent, beyond the allocated words: no-op
	for _, i := range []int{129, 0, 63, 64, 127, 128, 64} {
		s.Add(i)
	}
	want := []int{0, 63, 64, 127, 128, 129}
	if got := members(&s); !reflect.DeepEqual(got, want) {
		t.Fatalf("members = %v, want %v", got, want)
	}
	for _, c := range []struct{ from, want int }{
		{0, 0}, {1, 63}, {63, 63}, {64, 64}, {65, 127}, {128, 128}, {130, -1}, {1 << 20, -1},
	} {
		if got := s.Next(c.from); got != c.want {
			t.Errorf("Next(%d) = %d, want %d", c.from, got, c.want)
		}
	}
	s.Remove(63)
	s.Remove(64)
	if got := s.Next(1); got != 127 {
		t.Fatalf("after removing 63 and 64: Next(1) = %d, want 127", got)
	}
}

func TestReadySetRemoveDuringIteration(t *testing.T) {
	var s ReadySet
	for i := 0; i < 200; i++ {
		s.Add(i)
	}
	var visited []int
	for i := s.Next(0); i >= 0; i = s.Next(i + 1) {
		visited = append(visited, i)
		s.Remove(i) // the member being visited
		if i+1 < 200 && i%3 == 0 {
			s.Remove(i + 1) // a member not yet visited is skipped
		}
		if i == 9 {
			s.Add(251) // added above the cursor: visited in this pass
			s.Add(5)   // added below the cursor: left for the next pass
		}
	}
	if len(visited) == 0 || visited[len(visited)-1] != 251 {
		t.Fatalf("member added above the cursor not visited: %v", visited)
	}
	fives := 0
	for _, i := range visited {
		if i%3 == 1 {
			t.Fatalf("visited %d, which was removed ahead of the cursor", i)
		}
		if i == 5 {
			fives++
		}
	}
	if fives != 1 {
		t.Fatalf("5 visited %d times; re-adding below the cursor must not revisit it", fives)
	}
	if got := members(&s); !reflect.DeepEqual(got, []int{5}) {
		t.Fatalf("left after the pass = %v, want [5]", got)
	}
}
