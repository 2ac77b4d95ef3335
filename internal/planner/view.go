package planner

// View is the JSON rendering of a Plan (GET /v1/graphs/{id}/plan).
// Method and order names round-trip through the job API: posting
// {"method": chosen.method, "order": chosen.order} executes exactly the
// plan's choice.
type View struct {
	Chosen  CandidateView   `json:"chosen"`
	Ranking []CandidateView `json:"ranking"`
	Fit     Fit             `json:"fit"`
}

// CandidateView is the JSON rendering of one grid cell.
type CandidateView struct {
	Method string `json:"method"`
	Order  string `json:"order"`
	// PerNode is the predicted model operations per non-isolated node
	// (eq. 50); Total is the graph-wide prediction, comparable to a
	// job's model_ops; PredictedNs is Total priced in nanoseconds, the
	// quantity the ranking sorts by.
	PerNode     float64 `json:"predicted_cost_per_node"`
	Total       float64 `json:"predicted_cost"`
	PredictedNs float64 `json:"predicted_ns"`
}

func (c Candidate) view() CandidateView {
	return CandidateView{
		Method:      c.Method.String(),
		Order:       c.Order.String(),
		PerNode:     c.PerNode,
		Total:       c.Total,
		PredictedNs: c.PredictedNs,
	}
}

// View snapshots the plan for JSON rendering.
func (p *Plan) View() View {
	v := View{
		Chosen:  p.Best().view(),
		Ranking: make([]CandidateView, len(p.Ranking)),
		Fit:     p.Fit,
	}
	for i, c := range p.Ranking {
		v.Ranking[i] = c.view()
	}
	return v
}
