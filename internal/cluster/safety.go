package cluster

import (
	"fmt"

	"exist/internal/simtime"
)

// Safety is the state of the fleet's safety rules (DESIGN.md §17) when it
// is read. At the end of a run each count must be zero, except MaxOwners,
// which must be at most one.
type Safety struct {
	// DupKeys counts session keys landed more than once.
	DupKeys int
	// Unresolved counts planned slots off the books. That is a slot still
	// pending on a request neither its deadline nor a Cancel ended, or one
	// resolved past the plan. start adds one to a request's pending count per planned
	// slot, and uploadLanded and giveUpSlot each take one off, so
	// len(SessionKeys)+Lost+pending == Planned by construction.
	Unresolved int
	// MaxOwners is the most fencing-valid owners any shard had at once
	// over the run. The count can rise only where electTick acquires or
	// renews a lease, and noteOwners records it there.
	MaxOwners int

	first error // the first broken rule, naming its request or shard
}

// Err names the first broken rule, or returns nil when every rule holds.
func (s Safety) Err() error {
	if s.first == nil {
		return nil
	}
	return fmt.Errorf("safety rule broken: %w (%d duplicated session keys, %d unresolved slots, max %d owners of one shard)",
		s.first, s.DupKeys, s.Unresolved, s.MaxOwners)
}

// noteOwners records shard si's fencing-valid owner count at true time
// now, right after electTick acquired or renewed its lease.
func (c *Cluster) noteOwners(si int, now simtime.Time) {
	n := c.ActiveOwnersShard(si, now)
	if n > 1 && c.ownersErr == nil {
		c.ownersErr = fmt.Errorf("shard %d: %d fencing-valid owners at %v", si, n, now)
	}
	c.maxOwners = max(c.maxOwners, n)
}

// Safety checks every request against its own books and reads the
// recorded owner maximum.
func (c *Cluster) Safety() Safety {
	s := Safety{MaxOwners: c.maxOwners}
	seen := make(map[string]bool)
	for _, r := range c.API.List() {
		for _, k := range r.SessionKeys {
			if seen[k] {
				s.DupKeys++
				s.broke(fmt.Errorf("request %s: session key %s landed twice", r.Name, k))
			}
			seen[k] = true
		}
		switch {
		case r.pending < 0:
			s.Unresolved -= r.pending
			s.broke(fmt.Errorf("request %s: %d landed + %d lost exceed %d planned",
				r.Name, len(r.SessionKeys), r.Lost, r.Planned))
		case r.pending > 0 && !r.abandoned:
			s.Unresolved += r.pending
			s.broke(fmt.Errorf("request %s: %d of %d planned slots unresolved (phase %s)",
				r.Name, r.pending, r.Planned, r.Phase))
		}
	}
	s.broke(c.ownersErr)
	return s
}

// broke keeps err if it is the first broken rule.
func (s *Safety) broke(err error) {
	if s.first == nil {
		s.first = err
	}
}
