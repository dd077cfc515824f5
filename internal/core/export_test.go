package core

// SharedPipeline hands the package's one TestConfig pipeline to the
// examples in package core_test.
var SharedPipeline = sharedPipeline
