package main

// The pools of generator seeds the compile sets draw from. Each holds the
// middle half by optimization cost of a profile's generator seeds 1–120:
// every program of those seeds was optimized once, in process, with its
// workload's passes on the reference host, and the quarter cheapest and the
// quarter dearest were left out. A draw from the whole range moved a
// geometric mean over a handful of programs by a tenth to a fifth between
// seeds; the pools keep the seeded draw and most of that spread away.
// Every program of seeds 1–2000 (60 statements, the ten paper passes) and
// 1–120 (300 statements, CTP,CFO,DCE,FUS,PAR) of each profile passed the
// oracle on the seed system.

// largePool holds 300-statement programs for large-5pass (CTP,CFO,DCE,FUS,PAR).
var largePool = map[string][]int64{
	"default": {
		1, 5, 11, 12, 14, 15, 17, 18, 21, 25, 30, 31, 34, 35, 36,
		37, 38, 40, 42, 43, 44, 45, 48, 49, 51, 52, 53, 54, 59, 64,
		66, 67, 68, 70, 71, 72, 74, 75, 77, 79, 88, 89, 92, 93, 95,
		99, 100, 101, 102, 104, 108, 110, 111, 112, 113, 115, 116, 117, 118, 120,
	},
	"mixed": {
		2, 4, 5, 6, 10, 14, 20, 23, 25, 27, 30, 31, 32, 33, 36,
		37, 38, 41, 43, 45, 47, 49, 51, 52, 53, 61, 63, 64, 65, 69,
		71, 75, 76, 79, 80, 81, 82, 83, 85, 86, 92, 94, 95, 98, 100,
		101, 102, 104, 105, 107, 108, 109, 110, 112, 113, 114, 115, 116, 117, 119,
	},
	"aggregation": {
		5, 6, 9, 11, 13, 14, 15, 17, 18, 19, 20, 22, 24, 25, 26,
		28, 29, 33, 35, 38, 39, 40, 42, 43, 44, 45, 47, 48, 49, 54,
		55, 56, 59, 60, 62, 63, 67, 68, 69, 71, 72, 74, 78, 79, 83,
		84, 87, 89, 91, 92, 95, 97, 100, 102, 105, 110, 111, 117, 118, 119,
	},
}

// smallPool holds 60-statement programs for optd-mix's compile set (the ten
// paper passes).
var smallPool = map[string][]int64{
	"default": {
		3, 4, 6, 7, 8, 16, 18, 21, 25, 28, 31, 35, 37, 39, 40,
		43, 49, 51, 52, 53, 54, 55, 56, 57, 59, 60, 64, 66, 68, 70,
		71, 72, 75, 76, 80, 81, 82, 84, 88, 91, 92, 95, 96, 97, 99,
		102, 103, 104, 105, 106, 107, 108, 109, 111, 114, 116, 117, 118, 119, 120,
	},
	"mixed": {
		1, 2, 6, 8, 9, 10, 14, 19, 20, 21, 22, 23, 25, 26, 27,
		28, 32, 33, 34, 39, 40, 41, 45, 47, 48, 52, 56, 58, 60, 63,
		65, 67, 68, 69, 71, 74, 78, 80, 81, 83, 84, 85, 86, 92, 93,
		95, 99, 101, 104, 105, 106, 107, 109, 110, 111, 112, 114, 116, 117, 120,
	},
	"aggregation": {
		2, 3, 4, 6, 8, 10, 11, 20, 21, 23, 25, 26, 27, 28, 30,
		31, 32, 34, 36, 37, 39, 42, 43, 45, 49, 53, 54, 56, 59, 60,
		62, 65, 66, 68, 71, 72, 73, 76, 79, 82, 83, 86, 87, 92, 93,
		96, 97, 100, 105, 106, 107, 108, 109, 110, 111, 112, 113, 114, 115, 120,
	},
}
