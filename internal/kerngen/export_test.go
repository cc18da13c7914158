package kerngen

// Finish exposes the check every generator's output passes through.
var Finish = finish
