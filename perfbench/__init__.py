"""The repository benchmark: LeNet engine against dense, and closed-loop serve and fabric traffic."""
