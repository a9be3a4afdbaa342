package memsys

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBlockAddr(t *testing.T) {
	cases := []struct {
		addr  Addr
		block Bytes
		want  Addr
	}{
		{0, 128, 0},
		{127, 128, 0},
		{128, 128, 128},
		{1000, 128, 896},
		{1000, 64, 960},
	}
	for _, c := range cases {
		if got := c.addr.BlockAddr(c.block); got != c.want {
			t.Errorf("%d.BlockAddr(%d) = %d, want %d", c.addr, c.block, got, c.want)
		}
	}
}

func TestBlockAddrProperties(t *testing.T) {
	// Properties: result is block-aligned, idempotent, and never
	// exceeds the input.
	f := func(a uint64) bool {
		addr := Addr(a)
		b := addr.BlockAddr(128)
		return uint64(b)%128 == 0 && b.BlockAddr(128) == b && b <= addr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCategoryString(t *testing.T) {
	cases := map[Category]string{
		Hit: "hit", ROSMiss: "ROS miss", RWSMiss: "RWS miss",
		CapacityMiss: "capacity miss", Category(99): "unknown",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(c), got, want)
		}
	}
}

func TestCategoryIsMiss(t *testing.T) {
	if Hit.IsMiss() {
		t.Error("Hit.IsMiss() = true")
	}
	for _, c := range []Category{ROSMiss, RWSMiss, CapacityMiss} {
		if !c.IsMiss() {
			t.Errorf("%v.IsMiss() = false", c)
		}
	}
}

func TestRecordAccessCategories(t *testing.T) {
	s := NewL2Stats()
	s.RecordAccess(Result{Category: Hit, DGroup: 0, ClosestDGroup: true})
	s.RecordAccess(Result{Category: Hit, DGroup: 2, ClosestDGroup: false})
	s.RecordAccess(Result{Category: ROSMiss, DGroup: -1})
	s.RecordAccess(Result{Category: RWSMiss, DGroup: -1})
	s.RecordAccess(Result{Category: CapacityMiss, DGroup: -1})

	if got := s.Accesses.Count(LabelHit); got != 2 {
		t.Errorf("hits = %d, want 2", got)
	}
	for _, l := range []string{LabelROS, LabelRWS, LabelCapacity} {
		if got := s.Accesses.Count(l); got != 1 {
			t.Errorf("%s = %d, want 1", l, got)
		}
	}
	if got := s.DataArray.Count(LabelClosest); got != 1 {
		t.Errorf("closest = %d, want 1", got)
	}
	if got := s.DataArray.Count(LabelFarther); got != 1 {
		t.Errorf("farther = %d, want 1", got)
	}
	if got := s.DataArray.Count(LabelMiss); got != 3 {
		t.Errorf("data misses = %d, want 3", got)
	}
}

func TestRecordAccessNoDGroupCountsClosest(t *testing.T) {
	s := NewL2Stats()
	s.RecordAccess(Result{Category: Hit, DGroup: -1})
	if got := s.DataArray.Count(LabelClosest); got != 1 {
		t.Errorf("d-group-less hit should count as closest, got %d", got)
	}
}

func TestMissRate(t *testing.T) {
	s := NewL2Stats()
	if s.MissRate() != 0 {
		t.Error("empty stats should have 0 miss rate")
	}
	for i := 0; i < 9; i++ {
		s.RecordAccess(Result{Category: Hit, DGroup: -1})
	}
	s.RecordAccess(Result{Category: CapacityMiss, DGroup: -1})
	if got := s.MissRate(); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("MissRate = %v, want 0.1", got)
	}
}

// TestRecordAccessDataArrayLabels pins the Figure 9 data-array
// breakdown: a d-grouped hit (DGroup >= 0, including d-group 0)
// classifies by ClosestDGroup; designs without d-groups (DGroup < 0)
// count every hit as closest.
func TestRecordAccessDataArrayLabels(t *testing.T) {
	s := NewL2Stats()
	s.RecordAccess(Result{Category: Hit, DGroup: 0, ClosestDGroup: true})
	s.RecordAccess(Result{Category: Hit, DGroup: 2, ClosestDGroup: true})
	s.RecordAccess(Result{Category: Hit, DGroup: 0, ClosestDGroup: false})
	s.RecordAccess(Result{Category: Hit, DGroup: -1})
	if got := s.DataArray.Count(LabelClosest); got != 3 {
		t.Errorf("closest hits = %d, want 3", got)
	}
	if got := s.DataArray.Count(LabelFarther); got != 1 {
		t.Errorf("farther hits = %d, want 1 (d-group 0 is a real d-group)", got)
	}
}

// TestAccessLabelsFollowCategoryOrder: RecordAccess indexes the tag
// distribution by Category, so category c must land on its own label.
// Recording c+1 accesses of each category tells every slot apart.
func TestAccessLabelsFollowCategoryOrder(t *testing.T) {
	s := NewL2Stats()
	labels := map[Category]string{Hit: LabelHit, ROSMiss: LabelROS, RWSMiss: LabelRWS, CapacityMiss: LabelCapacity}
	for c := range labels {
		for i := 0; i <= int(c); i++ {
			s.RecordAccess(Result{Category: c, DGroup: -1})
		}
	}
	for c, l := range labels {
		if got := s.Accesses.Count(l); got != uint64(c)+1 {
			t.Errorf("%s = %d, want %d", l, got, int(c)+1)
		}
	}
}

// TestRecordAccessFartherHitInDGroupZero: d-group 0 is a real d-group,
// so a farther hit served there counts as farther.
func TestRecordAccessFartherHitInDGroupZero(t *testing.T) {
	s := NewL2Stats()
	s.RecordAccess(Result{Category: Hit, DGroup: 0, ClosestDGroup: false})
	if got := s.DataArray.Count(LabelFarther); got != 1 {
		t.Errorf("farther = %d, want 1", got)
	}
}
