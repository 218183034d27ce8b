package main

import (
	"testing"
	"time"

	"repro/internal/events"
)

// TestPlanPinsDevicesAndDays checks the load generator's delivery contract: every
// trace event is sent exactly once, each device's events stay on one
// sender in (day, id) order, a sender's batches never go back a day, and
// the schedule is nondecreasing in plan order.
func TestPlanPinsDevicesAndDays(t *testing.T) {
	ds, err := syntheticTrace(3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := newPlan(ds, 2, uniformSize(3, 5, 40), true)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[events.EventID]bool{}
	owner := map[events.DeviceID]int{}
	last := map[events.DeviceID]events.Event{}
	for s, idx := range p.bySender {
		day := -1
		for _, i := range idx {
			b := p.batches[i]
			if b.events[0].Day < day || len(b.body) == 0 {
				t.Fatalf("sender %d: batch %d out of place (day %d after %d)", s, i, b.events[0].Day, day)
			}
			day = b.events[0].Day
			for _, ev := range b.events {
				if ev.Day != day {
					t.Fatalf("batch %d spans days %d and %d", i, day, ev.Day)
				}
				if seen[ev.ID] {
					t.Fatalf("event %d planned twice", ev.ID)
				}
				seen[ev.ID] = true
				if o, ok := owner[ev.Device]; ok && o != s {
					t.Fatalf("device %d on senders %d and %d", ev.Device, o, s)
				}
				owner[ev.Device] = s
				if prev, ok := last[ev.Device]; ok && !prev.Before(ev) {
					t.Fatalf("device %d: event %d after %d", ev.Device, ev.ID, prev.ID)
				}
				last[ev.Device] = ev
			}
		}
	}
	if len(seen) != len(ds.Events) || p.events != len(ds.Events) {
		t.Fatalf("planned %d of %d events", len(seen), len(ds.Events))
	}
	// Paced at 1000 events/s, each batch is due once every earlier event
	// has had its share of the schedule.
	fixed := fixedRate(p, 1000)
	for i := 1; i < len(fixed.due); i++ {
		if fixed.due[i] < fixed.due[i-1] {
			t.Fatalf("schedule goes back at batch %d", i)
		}
	}
	lastBatch := p.batches[len(p.batches)-1]
	want := time.Duration(float64(p.events-len(lastBatch.events)) / 1000 * float64(time.Second))
	if d := fixed.due[len(fixed.due)-1] - want; d < -time.Millisecond || d > time.Millisecond {
		t.Fatalf("last batch due %v, want %v", fixed.due[len(fixed.due)-1], want)
	}
}
