package core

// Fixtures shared with the external test package (sync_test.go).
var (
	FixtureModelCfg     = testModelCfg
	FixturePool         = testPool
	FixtureClients      = testClients
	FixtureCodecClients = codecTestClients
	FixtureTrain        = quickTrain
)
