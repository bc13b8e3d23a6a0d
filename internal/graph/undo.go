package graph

// Undo is the log of a circuit's mutations since Record, kept as their
// inverses.  Rolling it back restores the circuit exactly: the same Device
// and Net values in the same order with the same Index, every Pins and
// Conns entry in its original order, the same NetByName and DeviceByName
// results, and the same Port and Global marks.  That is what lets a caller
// edit a circuit in place and still abandon the edit, where it would
// otherwise have to edit a clone (internal/delta, internal/store).
//
// Every mutator records except RemoveDevices, which rebuilds all
// connection lists and refuses to run while the circuit records.
type Undo struct {
	c   *Circuit
	inv []func()
}

// Record starts logging the inverse of every mutation of c and returns
// the log.  A circuit records into one log at a time.
func (c *Circuit) Record() *Undo {
	if c.undo != nil {
		panic("graph: Record while already recording")
	}
	c.undo = &Undo{c: c}
	return c.undo
}

// Stop ends the recording and keeps the mutations; Rollback can still
// undo them as long as nothing has mutated the circuit since.
func (u *Undo) Stop() {
	if u.c.undo == u {
		u.c.undo = nil
	}
}

// Rollback ends the recording and undoes every logged mutation, newest
// first.
func (u *Undo) Rollback() {
	u.Stop()
	for i := len(u.inv) - 1; i >= 0; i-- {
		u.inv[i]()
	}
	u.inv = nil
}

func (u *Undo) log(inverse func()) { u.inv = append(u.inv, inverse) }

// restoreNets puts removed nets back at the positions they held, which
// their Index fields still record (the removal reindexed only the
// survivors), and back into the name map.  dropped is in ascending index
// order.
func (c *Circuit) restoreNets(dropped []*Net) {
	j := len(c.Nets) - 1
	c.Nets = append(c.Nets, dropped...)
	// Merge from the back: each slot takes either the next dropped net,
	// when that net held it, or the next survivor.
	for i, k := len(c.Nets)-1, len(dropped)-1; k >= 0; i-- {
		if dropped[k].Index == i {
			c.Nets[i] = dropped[k]
			k--
		} else {
			c.Nets[i] = c.Nets[j]
			j--
		}
	}
	for i := dropped[0].Index; i < len(c.Nets); i++ {
		c.Nets[i].Index = i
	}
	for _, n := range dropped {
		c.netByName[n.Name] = n
	}
}
