package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// stamp describes the machine a result was measured on, so multi-core
// and fsync figures can be attributed.
type stamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	JournalFS  string `json:"journal_fs"`
}

func machineStamp(journalDir string) stamp {
	return stamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		JournalFS:  fsType(journalDir),
	}
}

func (s stamp) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s cpu=%q journal_fs=%s",
		s.NProc, s.GOMAXPROCS, s.GoVersion, s.CPU, s.JournalFS)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return runtime.GOARCH
}

// fsMagic maps statfs(2) f_type values to filesystem names.
var fsMagic = map[int64]string{
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x01021994: "tmpfs",
	0x794C7630: "overlayfs",
	0x2FC12FC1: "zfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
	0x01021997: "9p",
	0x6A656A63: "virtiofs",
	0xF2F52010: "f2fs",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}
