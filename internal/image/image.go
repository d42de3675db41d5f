package image

import (
	"fmt"
	"sort"
)

// Image is a packaged application service: a root file system containing
// the service's executables and data files, organised with one root
// (§3: "the image of service S, including the executables and data files,
// properly organized in a file system").
type Image struct {
	// Name identifies the image in the repository ("webcontent-1.0").
	Name string
	// RootFS is the packaged file system.
	RootFS *Tree
	// SystemServices names the guest-OS (Linux) system services the
	// application requires; the SODA Daemon's tailoring step retains only
	// these and their dependency closure (§4.3).
	SystemServices []string
	// ServiceCommand is the init command that starts the application
	// service after the guest OS boots ("/usr/sbin/httpd").
	ServiceCommand string
	// Port is the TCP port the service listens on.
	Port int
	// WorkerProcesses is how many server processes the service runs in
	// its virtual service node (httpd pre-fork workers, etc.).
	WorkerProcesses int
	// Checksum is the publisher's digest over the image manifest. Zero
	// means the image was never sealed; Verify passes unsealed images so
	// ad-hoc test images keep working without a signing step.
	Checksum uint64
}

// ComputeChecksum digests the image manifest — name, service metadata,
// and every file's path, size, and mode — with FNV-1a. Content bytes are
// synthetic in this model, so the manifest is the identity of the image.
func (im *Image) ComputeChecksum() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
		h ^= 0xff // field separator
		h *= prime64
	}
	mixInt := func(v int64) {
		for i := 0; i < 8; i++ {
			h ^= uint64(byte(v >> (8 * i)))
			h *= prime64
		}
	}
	mix(im.Name)
	mix(im.ServiceCommand)
	mixInt(int64(im.Port))
	mixInt(int64(im.WorkerProcesses))
	for _, s := range im.SystemServices {
		mix(s)
	}
	if im.RootFS != nil {
		for _, f := range im.RootFS.List() {
			mix(f.Path)
			mixInt(f.SizeBytes)
			if f.Executable {
				mixInt(1)
			} else {
				mixInt(0)
			}
		}
	}
	if h == 0 {
		h = 1 // keep sealed images distinguishable from unsealed
	}
	return h
}

// Seal stamps the image with its manifest checksum.
func (im *Image) Seal() { im.Checksum = im.ComputeChecksum() }

// Verify reports whether the image matches its checksum. Unsealed
// images (zero checksum) pass.
func (im *Image) Verify() bool {
	return im.Checksum == 0 || im.Checksum == im.ComputeChecksum()
}

// Corrupted returns a delivery of the image whose checksum is flipped
// so Verify fails — the chaos injector's model of a bit-flipped
// download. It shares the image's tree; the image itself is untouched.
func (im *Image) Corrupted() *Image {
	c := *im
	if c.Checksum == 0 {
		c.Seal()
	}
	c.Checksum = ^c.Checksum
	if c.Checksum == 0 {
		c.Checksum = ^uint64(1)
	}
	return &c
}

// Validate reports the first problem with the image, or nil.
func (im *Image) Validate() error {
	switch {
	case im.Name == "":
		return fmt.Errorf("image: unnamed image")
	case im.RootFS == nil || im.RootFS.Len() == 0:
		return fmt.Errorf("image %s: empty root file system", im.Name)
	case im.ServiceCommand == "":
		return fmt.Errorf("image %s: no service command", im.Name)
	case !im.RootFS.Contains(im.ServiceCommand):
		return fmt.Errorf("image %s: service command %s not in root file system", im.Name, im.ServiceCommand)
	case im.Port <= 0 || im.Port > 65535:
		return fmt.Errorf("image %s: bad port %d", im.Name, im.Port)
	case im.WorkerProcesses <= 0:
		return fmt.Errorf("image %s: need at least one worker process", im.Name)
	}
	return nil
}

// SizeMB returns the image's packaged size.
func (im *Image) SizeMB() int { return im.RootFS.SizeMB() }

// SizeBytes returns the image's packaged size in bytes.
func (im *Image) SizeBytes() int64 { return im.RootFS.SizeBytes() }

// Builder assembles images with synthetic content so tests and the
// benchmark harness can produce file systems of any target size without
// shipping real binaries.
type Builder struct {
	img  *Image
	errs []error
}

// NewBuilder starts an image named name.
func NewBuilder(name string) *Builder {
	return &Builder{img: &Image{Name: name, RootFS: newTree(), Port: 8080, WorkerProcesses: 1}}
}

// WithService sets the service start command (added to the tree as an
// executable) and listen port.
func (b *Builder) WithService(command string, sizeBytes int64, port int) *Builder {
	if err := b.img.RootFS.add(command, sizeBytes, true); err != nil {
		b.errs = append(b.errs, err)
		return b
	}
	b.img.ServiceCommand = command
	b.img.Port = port
	return b
}

// WithWorkers sets the number of service worker processes.
func (b *Builder) WithWorkers(n int) *Builder {
	b.img.WorkerProcesses = n
	return b
}

// WithSystemServices declares the guest-OS services the application needs.
// Matching init scripts are added under /etc/init.d/.
func (b *Builder) WithSystemServices(names ...string) *Builder {
	b.img.SystemServices = append(b.img.SystemServices, names...)
	for _, n := range names {
		if err := b.img.RootFS.add("/etc/init.d/"+n, 4096, true); err != nil {
			b.errs = append(b.errs, err)
		}
	}
	return b
}

// WithFile adds an arbitrary file.
func (b *Builder) WithFile(path string, sizeBytes int64) *Builder {
	if err := b.img.RootFS.add(path, sizeBytes, false); err != nil {
		b.errs = append(b.errs, err)
	}
	return b
}

// WithDataset adds n data files of the given size under /var/www/data/,
// the static dataset served by the paper's web content service.
func (b *Builder) WithDataset(n int, fileBytes int64) *Builder {
	for i := 0; i < n; i++ {
		b.WithFile(fmt.Sprintf("/var/www/data/file-%04d.bin", i), fileBytes)
	}
	return b
}

// PadToMB adds filler under /usr/lib/ until the image's total size
// reaches the target, reproducing the paper's image sizes (29.3 MB,
// 15 MB, 400 MB, 253 MB) without enumerating every real file.
func (b *Builder) PadToMB(targetMB int) *Builder {
	const chunk = 4 << 20
	want := int64(targetMB) << 20
	i := 0
	for b.img.RootFS.SizeBytes() < want {
		n := want - b.img.RootFS.SizeBytes()
		if n > chunk {
			n = chunk
		}
		b.WithFile(fmt.Sprintf("/usr/lib/pad/blob-%04d", i), n)
		i++
	}
	return b
}

// Build finalises and validates the image.
func (b *Builder) Build() (*Image, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	sort.Strings(b.img.SystemServices)
	if err := b.img.Validate(); err != nil {
		return nil, err
	}
	b.img.Seal()
	return b.img, nil
}

// MustBuild is Build, panicking on error.
func (b *Builder) MustBuild() *Image {
	im, err := b.Build()
	if err != nil {
		panic(err)
	}
	return im
}
