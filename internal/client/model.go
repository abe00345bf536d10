package client

import (
	"net/http"
	"net/url"

	"biasedres/internal/models"
)

// Model management: each stream can carry one continuously retrained
// classifier over its biased sample (see internal/models). These methods
// mirror the /streams/{name}/model routes.

// ModelConfig is the model-attach request. Zero values take the server
// defaults: K=1, Dim=the stream's dimensionality, ShortH=100,
// LongH=10*ShortH, Threshold=4, CheckEvery=64, MinGap=ShortH, Window=256.
// MaxStaleness=0 disables the forced-retrain cap.
type ModelConfig = models.Config

// ModelStats is the model's state as served by GET /streams/{name}/model.
// Accuracy is -1 before any point has been scored; WindowAcc is only
// meaningful once WindowOK is true.
type ModelStats = models.Stats

// ConfusionCell is one non-zero entry of a model's confusion matrix.
type ConfusionCell = models.ConfusionCell

// ModelEval is the full evaluation served by GET /streams/{name}/model/eval.
// MacroF1 is -1 before any scored point.
type ModelEval = models.Eval

func modelPath(name string) string {
	return "/streams/" + url.PathEscape(name) + "/model"
}

// CreateModel attaches a model to the stream and returns its initial stats
// (trained from whatever the reservoir holds). The server answers 409 if
// the stream already carries a model and 400 if neither the stream nor cfg
// has a dimensionality yet.
func (c *Client) CreateModel(name string, cfg ModelConfig) (*ModelStats, error) {
	var out ModelStats
	if err := c.do(http.MethodPost, modelPath(name), cfg, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ModelStats fetches the stream's model state.
func (c *Client) ModelStats(name string) (*ModelStats, error) {
	var out ModelStats
	if err := c.do(http.MethodGet, modelPath(name), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ModelEval fetches the stream's full model evaluation: headline stats
// plus the confusion matrix and macro-F1.
func (c *Client) ModelEval(name string) (*ModelEval, error) {
	var out ModelEval
	if err := c.do(http.MethodGet, modelPath(name)+"/eval", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// DeleteModel detaches the stream's model.
func (c *Client) DeleteModel(name string) error {
	return c.do(http.MethodDelete, modelPath(name), nil, nil)
}
