package cluster

import "fmt"

// Extent is one stripe of a tenant's address space: the client sees region
// id Stripe (tenant-local, dense from 0 so core.RegionTable stays small);
// the bytes live in region NodeRegionID on memnode Memnode. The directory
// is the only place the two id spaces meet — everything below the fleet
// wiring speaks client-facing ids, everything on the memnode side speaks
// node-local ids.
type Extent struct {
	Stripe       uint16
	Memnode      int
	NodeRegionID uint16
	Size         uint64
}

// Directory is the CBoard-style region directory: it decides which memnode
// hosts each stripe of each tenant's space and allocates the node-local
// region ids. Placement is deterministic (tenant hash picks the starting
// node, stripes round-robin from there) so a tenant with more than one
// stripe always spans more than one memnode when the fleet has them.
// Not safe for concurrent use; the fleet calls it from its single control
// goroutine.
type Directory struct {
	memnodes []int
	nextID   map[int]uint16 // per-memnode next node-local region id
	tenants  map[int][]Extent
}

// NewDirectory builds a directory over the given memnode ids. The slice
// order is the stripe rotation order.
func NewDirectory(memnodes []int) *Directory {
	d := &Directory{
		memnodes: append([]int(nil), memnodes...),
		nextID:   make(map[int]uint16),
		tenants:  make(map[int][]Extent),
	}
	return d
}

// Place allocates stripes regions of stripeSize bytes for tenant, spread
// across the memnodes. It is idempotent per tenant: placing an
// already-placed tenant returns the existing extents.
func (d *Directory) Place(tenant, stripes int, stripeSize uint64) ([]Extent, error) {
	if ext, ok := d.tenants[tenant]; ok {
		return ext, nil
	}
	if len(d.memnodes) == 0 {
		return nil, fmt.Errorf("cluster: no memnodes to place tenant %d", tenant)
	}
	if stripes < 1 {
		stripes = 1
	}
	start := int(hash64(uint64(tenant)) % uint64(len(d.memnodes)))
	ext := make([]Extent, stripes)
	for s := 0; s < stripes; s++ {
		node := d.memnodes[(start+s)%len(d.memnodes)]
		id := d.nextID[node]
		if id == ^uint16(0) {
			return nil, fmt.Errorf("cluster: memnode %d out of region ids", node)
		}
		d.nextID[node] = id + 1
		ext[s] = Extent{Stripe: uint16(s), Memnode: node, NodeRegionID: id, Size: stripeSize}
	}
	d.tenants[tenant] = ext
	return ext, nil
}

// Lookup returns the tenant's extents, nil if unplaced.
func (d *Directory) Lookup(tenant int) []Extent { return d.tenants[tenant] }

// Remove forgets a tenant's placement. Node-local region ids are not
// recycled — the id space is 65535 per node and fleets here churn far less.
func (d *Directory) Remove(tenant int) { delete(d.tenants, tenant) }

// Tenants returns the number of placed tenants.
func (d *Directory) Tenants() int { return len(d.tenants) }
