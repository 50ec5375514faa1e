package mcp

// credit hands port one credit of kind c that every event from now on sees,
// its doorbell rung a nanosecond ago: the immediate credit the firmware's own
// tests provide buffers with, through the one path (ScheduleCredits).
func (m *MCP) credit(port int, c Credit) error {
	return m.ScheduleCredits(port, c, 1, m.sim.Now()-1, 0)
}
