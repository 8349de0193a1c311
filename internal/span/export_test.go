package span

// RecorderOf returns a recorder holding reqs in completion order, with
// dropped evictions, as if it had recorded them.
func RecorderOf(reqs []*Request, dropped int64) *Recorder {
	return &Recorder{capn: max(len(reqs), 1), reqs: reqs, dropped: dropped}
}
