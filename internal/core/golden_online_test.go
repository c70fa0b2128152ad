package core

import (
	"fmt"
	"testing"

	"ebv/internal/partition"
)

// TestGoldenOnlineAssignments pins the edge-at-a-time assigners outside the
// offline loop bit for bit — streaming EBV (plain, windowed, weighted), the
// epoch-synchronized parallel EBV (default and a small-epoch unsorted shape)
// and HDRF — on the two pinned graphs. The hashes are SHA-256 over
// Assignment.Parts as produced by commit b2465ad, when each of the five
// still carried its own scoring loop; k=70 needs two membership words.
func TestGoldenOnlineAssignments(t *testing.T) {
	graphs := pinnedGraphs(t)
	variants := []struct {
		name string
		p    partition.Partitioner
	}{
		{"stream", &PartitionStream{}},
		{"stream-window64", &PartitionStream{Window: 64}},
		{"stream-a0.5-b2", &PartitionStream{Alpha: 0.5, Beta: 2}},
		{"parallel", &ParallelEBV{}},
		{"parallel-w3-e100-nosort", &ParallelEBV{Workers: 3, EpochEdges: 100, NoSort: true}},
		{"hdrf", &partition.HDRF{}},
		{"hdrf-l3", &partition.HDRF{Lambda: 3}},
	}
	seen := 0
	for _, name := range []string{"powerlaw", "road"} {
		for _, k := range []int{1, 2, 8, 70} {
			for _, v := range variants {
				key := fmt.Sprintf("%s/k=%d/%s", name, k, v.name)
				a, err := v.p.Partition(t.Context(), graphs[name], k)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				seen++
				if got := partsSHA256(a); got != goldenOnlineAssignments[key] {
					t.Errorf("%q: %q, golden %q", key, got, goldenOnlineAssignments[key])
				}
			}
		}
	}
	if seen != len(goldenOnlineAssignments) {
		t.Errorf("checked %d cells, table has %d", seen, len(goldenOnlineAssignments))
	}
}

var goldenOnlineAssignments = map[string]string{
	"powerlaw/k=1/stream":                   "55873fecc61a79e87ca550c7072e38ccdd7ecb600ace286fe4717952a97c42b0",
	"powerlaw/k=1/stream-window64":          "55873fecc61a79e87ca550c7072e38ccdd7ecb600ace286fe4717952a97c42b0",
	"powerlaw/k=1/stream-a0.5-b2":           "55873fecc61a79e87ca550c7072e38ccdd7ecb600ace286fe4717952a97c42b0",
	"powerlaw/k=1/parallel":                 "55873fecc61a79e87ca550c7072e38ccdd7ecb600ace286fe4717952a97c42b0",
	"powerlaw/k=1/parallel-w3-e100-nosort":  "55873fecc61a79e87ca550c7072e38ccdd7ecb600ace286fe4717952a97c42b0",
	"powerlaw/k=1/hdrf":                     "55873fecc61a79e87ca550c7072e38ccdd7ecb600ace286fe4717952a97c42b0",
	"powerlaw/k=1/hdrf-l3":                  "55873fecc61a79e87ca550c7072e38ccdd7ecb600ace286fe4717952a97c42b0",
	"powerlaw/k=2/stream":                   "ae6ddeb9b2794b872c6bf1d0af8c568341e544e8606ef5afa32ed5dc194c8661",
	"powerlaw/k=2/stream-window64":          "dce09dcf48dcaa1e3742b7446730ffb32472386a92463739170026fba2abcaf3",
	"powerlaw/k=2/stream-a0.5-b2":           "dd461f6b93fdf281d06cd3cec59f94170e63117b1cdc41ac5a4fdcb5774c6bd9",
	"powerlaw/k=2/parallel":                 "fb8499493f4a4490a89b1ca3fd6b1c95af7f19966ca13eb440d41454495a0300",
	"powerlaw/k=2/parallel-w3-e100-nosort":  "57b88be513762b96d9071299f6705da8dae9179eb0d054880d3791a2bba2df57",
	"powerlaw/k=2/hdrf":                     "e9d18f84fcb9ef0bbc2996bd1b8bccb68ff4880c2905a562e8665ec4f65ceb1a",
	"powerlaw/k=2/hdrf-l3":                  "275420699ed4127b9941f793732a3692e4d49d8b7c2f88e43628465e683a14fb",
	"powerlaw/k=8/stream":                   "45063eb8f0e80df6f4704c87d764fb90b97e9d8386311b8c7aec292d2b1fb12e",
	"powerlaw/k=8/stream-window64":          "8f5281685c2804887ea9c0568a8e1d886fd1f75862f5a06284c7e5759f407475",
	"powerlaw/k=8/stream-a0.5-b2":           "a9561df09bfd687a45bebc9290638fc312be85eaa147b20cf8f3374637beada5",
	"powerlaw/k=8/parallel":                 "db509c46ba049b8734f2a33affe11fc75acfaf7dd328a339cc6a70774d7778c3",
	"powerlaw/k=8/parallel-w3-e100-nosort":  "b64f79e0a3ff695b48d3eb15ee9511a162910fbc1e6a7cee5bdaa381680f4a58",
	"powerlaw/k=8/hdrf":                     "c1266f43c185077669fbf55b8139c747ce48e846b3e862a668e3c1c5514f02e8",
	"powerlaw/k=8/hdrf-l3":                  "b7dab9db60d9c9505bdf06d5cc59ec5947ea009829585a0e551be7b0cbcc6997",
	"powerlaw/k=70/stream":                  "118393ac828e48d3574bcdc67f7a9bd8f9461efc85dee52f91d74ce3c4ef41d9",
	"powerlaw/k=70/stream-window64":         "80045c89a1c0585a962b24ca02a74fefcd9a20c3b6b6bdb7531bc0b7daca89a8",
	"powerlaw/k=70/stream-a0.5-b2":          "ac744a63731a6ff2b3b3aa93ab3079752b35bbfd37b9879869b52631800c0213",
	"powerlaw/k=70/parallel":                "418a0925377e0a84116a9d69312309ab5e552f1f06602f38d8ec473516ba3959",
	"powerlaw/k=70/parallel-w3-e100-nosort": "b72547c21d9330302957d5b704a6858b4bbb0fa80647f5ccbea26b48ef9f3d7b",
	"powerlaw/k=70/hdrf":                    "ee9723d2cfcbd11bebc9dc5781a33c27f7ca33270e6353e48658398aa8da3bb4",
	"powerlaw/k=70/hdrf-l3":                 "f6e4db0d8b820bce896dc4635fa2a34e4a32ddf374cb0d88979806ffd4fa2e00",
	"road/k=1/stream":                       "a286facff3b69cd0eec6c0a60ffdaede38b7a16bbd7ba6c989c2ed58db6dcbd8",
	"road/k=1/stream-window64":              "a286facff3b69cd0eec6c0a60ffdaede38b7a16bbd7ba6c989c2ed58db6dcbd8",
	"road/k=1/stream-a0.5-b2":               "a286facff3b69cd0eec6c0a60ffdaede38b7a16bbd7ba6c989c2ed58db6dcbd8",
	"road/k=1/parallel":                     "a286facff3b69cd0eec6c0a60ffdaede38b7a16bbd7ba6c989c2ed58db6dcbd8",
	"road/k=1/parallel-w3-e100-nosort":      "a286facff3b69cd0eec6c0a60ffdaede38b7a16bbd7ba6c989c2ed58db6dcbd8",
	"road/k=1/hdrf":                         "a286facff3b69cd0eec6c0a60ffdaede38b7a16bbd7ba6c989c2ed58db6dcbd8",
	"road/k=1/hdrf-l3":                      "a286facff3b69cd0eec6c0a60ffdaede38b7a16bbd7ba6c989c2ed58db6dcbd8",
	"road/k=2/stream":                       "e69008712edfdc36bdaa59843f1271013b00b58e5efa3cfc9487fbbd08ebf28b",
	"road/k=2/stream-window64":              "be2921c3a420867e6a1fe4a1aef0b2adfbc0bb4d50611907ad8a70adec2362e5",
	"road/k=2/stream-a0.5-b2":               "d5c18b402c655c23e09f0be5425468858ef308e521c96f7b9298ddfaebaf950e",
	"road/k=2/parallel":                     "c097302dc7875ae6eaba7d6a861280449cf28a90693b2339a19ff124c0465a78",
	"road/k=2/parallel-w3-e100-nosort":      "c9828b635b440c2ac286ae7c61eb1c6fbeaaf49e1234ad19d13bab01f65f6a57",
	"road/k=2/hdrf":                         "fdcc3ed88e5cd9e4257029ca78ffdc87784922cabfdb1d3f23ef239b636dbb19",
	"road/k=2/hdrf-l3":                      "644e5a4cf0878bc8c2f5e7b481a47200143d5a98be0c49b5acb97eee164cb5c4",
	"road/k=8/stream":                       "e8fae49fdc046101dc0db8f3b8fad6ad7e1056800ef6bc05a7ca45e36a35487b",
	"road/k=8/stream-window64":              "4e2a43dfa3b1b6e3eeb1fd11f2067f5ce7fb90d7f720a51e9000b09013d723c3",
	"road/k=8/stream-a0.5-b2":               "de12142e9af2c23a9ff9d83918b57d8c13529320093cc494ab6d5d93200ba597",
	"road/k=8/parallel":                     "6aca071b5e7c2f7857b112e5cd07b733ade96ada85148a03c4083f124a1403d1",
	"road/k=8/parallel-w3-e100-nosort":      "0185955bbd775733b9cce886f82c107dbc6192c0a05b67da7461ce01ed522182",
	"road/k=8/hdrf":                         "8943d89d0d14be2ba9ea0d6a6de9a6bbc07637485636f3e3722d2e748426ac4e",
	"road/k=8/hdrf-l3":                      "51f5b453f766dc231c8927a15f5b71acfaa816a88d4fee7c4781bf7d5a125757",
	"road/k=70/stream":                      "336d92a9dc28e1c14d168550470fcbec3b4e07d790da1ee963b6e8a319e17beb",
	"road/k=70/stream-window64":             "8b087cc6c4205c346d2e1b9f0e04d35b2914389cfb59d2d52f84bbfc5c4c3747",
	"road/k=70/stream-a0.5-b2":              "49d2e10b978503b5088a4a378b7fbe7d22fffd8273daad6d5b79052d4ae8684d",
	"road/k=70/parallel":                    "7ae117504eae923d7b07b1b10a6eee9bba09071cbdee36cff8704ae365a6963d",
	"road/k=70/parallel-w3-e100-nosort":     "1e1762da7846be651cd555e51d3495919b5febc2c50953cd427756cac365ba45",
	"road/k=70/hdrf":                        "8943d89d0d14be2ba9ea0d6a6de9a6bbc07637485636f3e3722d2e748426ac4e",
	"road/k=70/hdrf-l3":                     "0e0a2c2e857a234a122bfa4683ff05b0212a921108030bed5f561e3a2e5f17e5",
}
