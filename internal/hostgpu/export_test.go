package hostgpu

// TimingCacheLen returns how many pricings the device's timing cache holds.
func (g *GPU) TimingCacheLen() int {
	g.cacheMu.RLock()
	defer g.cacheMu.RUnlock()
	return len(g.timingCache)
}

// TimingCacheCap is the bound a device's timing cache never exceeds.
const TimingCacheCap = timingCacheCap
