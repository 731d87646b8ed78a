package mem

// This file gives the tests the general data path on its own: a word load
// or store resolved through rangeFor, timed by timedAccess and counted by
// account, with no hit window and no cache probe in front. FuzzDataPath
// runs a twin controller on it as the reference for ReadWord, WriteWord
// and ReadWordHit.

// refReadWord is ReadWord on the general path.
func (c *Controller) refReadWord(now uint64, addr uint32) (uint32, uint64, error) {
	if addr%4 != 0 {
		return 0, 0, c.fault(addr, "unaligned word load")
	}
	r := c.rangeFor(addr)
	if r == nil {
		return 0, 0, c.fault(addr, "load from unmapped address")
	}
	stall := c.timedAccess(c.dcache, now, r, addr, 4, false)
	v := r.Target.LoadWord(addr - r.Base)
	c.account(r.Kind, false, stall)
	return v, stall, nil
}

// refWriteWord is WriteWord on the general path.
func (c *Controller) refWriteWord(now uint64, addr uint32, v uint32) (uint64, error) {
	if addr%4 != 0 {
		return 0, c.fault(addr, "unaligned word store")
	}
	r := c.rangeFor(addr)
	if r == nil {
		return 0, c.fault(addr, "store to unmapped address")
	}
	stall := c.timedAccess(c.dcache, now, r, addr, 4, true)
	r.Target.StoreWord(addr-r.Base, v)
	if c.codeWrite != nil {
		c.codeWrite(addr, 4)
	}
	c.account(r.Kind, true, stall)
	return stall, nil
}
